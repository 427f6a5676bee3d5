package binlog

// tail_test.go pins the in-memory tail to the files: whatever sequence of
// appends, rotations, truncations, purges, resets and crashes a log goes
// through, reading it must return exactly what a freshly opened copy of
// its directory returns, and evicted entries must fall through to the
// file path unchanged.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"myraft/internal/gtid"
	"myraft/internal/opid"
)

// reopenedCopy flushes l's writer, copies its directory and opens the
// copy: a Log whose reads can only come from the files.
func reopenedCopy(t *testing.T, l *Log) *Log {
	t.Helper()
	l.mu.Lock()
	if err := l.flushLocked(); err != nil {
		l.mu.Unlock()
		t.Fatal(err)
	}
	dir := l.dir
	l.mu.Unlock()
	dst := t.TempDir()
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		copyFile(t, filepath.Join(dir, n.Name()), filepath.Join(dst, n.Name()))
	}
	c, err := Open(Options{Dir: dst})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	in, err := os.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if _, err := io.Copy(out, in); err != nil {
		t.Fatal(err)
	}
}

// sameResult reports whether two reads agree, errors included.
func sameResult(a []*Entry, aerr error, b []*Entry, berr error) error {
	if (aerr == nil) != (berr == nil) || (aerr != nil && aerr.Error() != berr.Error()) {
		return fmt.Errorf("errors differ: %v vs %v", aerr, berr)
	}
	if len(a) != len(b) {
		return fmt.Errorf("%d entries vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return fmt.Errorf("entry %d differs: %+v vs %+v", i, *a[i], *b[i])
		}
	}
	return nil
}

func one(e *Entry, err error) ([]*Entry, error) {
	if err != nil {
		return nil, err
	}
	return []*Entry{e}, nil
}

// checkTailMatchesFiles compares every Entry around the live range and a
// few Entries ranges between l and a freshly opened copy of its files.
func checkTailMatchesFiles(t *testing.T, rng *rand.Rand, l *Log, step string) {
	t.Helper()
	c := reopenedCopy(t, l)
	if l.LastOpID() != c.LastOpID() || l.FirstIndex() != c.FirstIndex() {
		t.Fatalf("%s: tail %v/%d vs reopened %v/%d", step, l.LastOpID(), l.FirstIndex(), c.LastOpID(), c.FirstIndex())
	}
	lo, hi := l.FirstIndex(), l.LastOpID().Index
	if lo > 0 {
		lo--
	}
	for i := lo; i <= hi+1; i++ {
		a, aerr := one(l.Entry(i))
		b, berr := one(c.Entry(i))
		if err := sameResult(a, aerr, b, berr); err != nil {
			t.Fatalf("%s: Entry(%d): %v", step, i, err)
		}
	}
	for k := 0; k < 4; k++ {
		from := lo + uint64(rng.Int63n(int64(hi-lo+2)))
		to := from + uint64(rng.Intn(80))
		a, aerr := l.Entries(from, to)
		b, berr := c.Entries(from, to)
		if err := sameResult(a, aerr, b, berr); err != nil {
			t.Fatalf("%s: Entries(%d, %d): %v", step, from, to, err)
		}
	}
}

func randomEntry(rng *rand.Rand, term, index uint64) *Entry {
	e := &Entry{OpID: opid.OpID{Term: term, Index: index}, Type: EntryNormal}
	switch rng.Intn(8) {
	case 0:
		e.Type = EntryNoOp
	case 1:
		e.Type = EntryConfig
		e.Payload = make([]byte, rng.Intn(40))
	default:
		e.Payload = make([]byte, rng.Intn(3000))
		// A GTID HasGTID says is absent must read back as the zero GTID.
		e.HasGTID = rng.Intn(4) != 0
		e.GTID = gtid.GTID{Source: "src", ID: int64(index)}
	}
	rng.Read(e.Payload)
	return e
}

// TestTailMatchesFilesProperty drives random operation sequences and
// checks after every step that the log reads exactly like its files.
func TestTailMatchesFilesProperty(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			l, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { l.Close() }()
			term := uint64(1)
			for step := 0; step < 40; step++ {
				var name string
				switch op := rng.Intn(10); {
				case op < 4:
					n := 1 + rng.Intn(120)
					name = fmt.Sprintf("append %d", n)
					for i := 0; i < n; i++ {
						if err := l.Append(randomEntry(rng, term, l.LastOpID().Index+1)); err != nil {
							t.Fatal(err)
						}
					}
				case op == 4:
					name = "rotate"
					if err := l.Rotate(); err != nil {
						t.Fatal(err)
					}
				case op == 5:
					last := l.LastOpID().Index
					cut := last - uint64(rng.Int63n(int64(min(last, 150)+1)))
					name = fmt.Sprintf("truncate-after %d", cut)
					if _, err := l.TruncateAfter(cut); err != nil {
						t.Fatal(err)
					}
					term++
				case op == 6:
					to := uint64(rng.Int63n(int64(l.LastOpID().Index + 2)))
					name = fmt.Sprintf("purge-to %d", to)
					if err := l.PurgeTo(to); err != nil {
						t.Fatal(err)
					}
				case op == 7 && rng.Intn(3) == 0:
					at := opid.OpID{Term: term, Index: l.LastOpID().Index + uint64(rng.Intn(50))}
					name = fmt.Sprintf("reset-to %v", at)
					if err := l.ResetTo(at, l.GTIDSet()); err != nil {
						t.Fatal(err)
					}
				case op == 8:
					name = "sync"
					if err := l.Sync(); err != nil {
						t.Fatal(err)
					}
				default:
					name = "crash+reopen"
					if rng.Intn(2) == 0 {
						l.Sync() // sometimes nothing is torn off
					}
					l.Crash()
					if l, err = Open(Options{Dir: dir}); err != nil {
						t.Fatal(err)
					}
				}
				checkTailMatchesFiles(t, rng, l, fmt.Sprintf("step %d (%s)", step, name))
			}
		})
	}
}

// TestTailEvictionFallsThroughToFiles evicts by count and by bytes and
// checks that the evicted entries come back from the files unchanged,
// while the held ones are still served from memory.
func TestTailEvictionFallsThroughToFiles(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	t.Run("count", func(t *testing.T) {
		l := openTestLog(t, Options{})
		n := uint64(tailCap + 100)
		for i := uint64(1); i <= n; i++ {
			if err := l.Append(randomEntry(rng, 1, i)); err != nil {
				t.Fatal(err)
			}
		}
		if l.tail.n != tailCap || l.tail.first != n-tailCap+1 {
			t.Fatalf("tail holds %d from %d, want %d from %d", l.tail.n, l.tail.first, tailCap, n-tailCap+1)
		}
		checkTailMatchesFiles(t, rng, l, "count eviction")
		before := l.Stats().FileReads
		if _, err := l.Entries(n-tailCap+1, n); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Entries(n-tailCap, n); err != nil {
			t.Fatal(err)
		}
		if got := l.Stats().FileReads - before; got != 1 {
			t.Fatalf("file reads = %d, want 1 (only the range reaching below the tail)", got)
		}
	})
	t.Run("bytes", func(t *testing.T) {
		l := openTestLog(t, Options{})
		big := tailBytes/3 + 1 // three do not fit
		for i := uint64(1); i <= 4; i++ {
			e := &Entry{OpID: opid.OpID{Term: 1, Index: i}, Type: EntryNormal, Payload: bytes.Repeat([]byte{byte(i)}, big)}
			if err := l.Append(e); err != nil {
				t.Fatal(err)
			}
		}
		if l.tail.n != 2 || l.tail.first != 3 || l.tail.bytes != 2*big {
			t.Fatalf("tail holds %d from %d (%d bytes), want 2 from 3", l.tail.n, l.tail.first, l.tail.bytes)
		}
		checkTailMatchesFiles(t, rng, l, "byte eviction")
		// A payload over the whole budget stays file-only and empties the
		// tail; the next entry starts a fresh run.
		huge := &Entry{OpID: opid.OpID{Term: 1, Index: 5}, Type: EntryNormal, Payload: make([]byte, tailBytes+1)}
		if err := l.Append(huge); err != nil {
			t.Fatal(err)
		}
		if l.tail.n != 0 || l.tail.bytes != 0 {
			t.Fatalf("tail holds %d entries after an oversized append", l.tail.n)
		}
		if err := l.Append(normalEntry(1, 6, "after")); err != nil {
			t.Fatal(err)
		}
		if l.tail.n != 1 || l.tail.first != 6 {
			t.Fatalf("tail holds %d from %d, want 1 from 6", l.tail.n, l.tail.first)
		}
		checkTailMatchesFiles(t, rng, l, "oversized entry")
	})
}

// TestTailCrashNeverServesTornEntry: entries appended after the last Sync
// are torn off by Crash, and neither the crashed Log nor its reopened
// successor may return them.
func TestTailCrashNeverServesTornEntry(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, Options{Dir: dir})
	for i := uint64(1); i <= 3; i++ {
		l.Append(normalEntry(1, i, "synced"))
	}
	l.Sync()
	l.Append(normalEntry(1, 4, "torn"))
	l.Crash()
	if e, err := l.Entry(4); err == nil {
		t.Fatalf("crashed log served entry 4 (%q)", e.Payload)
	}
	r := openTestLog(t, Options{Dir: dir})
	if _, err := r.Entry(4); !errors.Is(err, ErrNotFound) {
		t.Fatalf("reopened Entry(4) = %v, want ErrNotFound", err)
	}
	if r.tail.n != 0 {
		t.Fatalf("reopened log starts with %d tail entries", r.tail.n)
	}
}

func TestTailAllocations(t *testing.T) {
	l := openTestLog(t, Options{})
	payload := make([]byte, 600)
	next := uint64(1)
	appendOne := func() {
		e := Entry{
			OpID: opid.OpID{Term: 1, Index: next}, Type: EntryNormal,
			HasGTID: true, GTID: gtid.GTID{Source: "uuid-mysql-0", ID: int64(next)},
			Payload: payload,
		}
		if err := l.Append(&e); err != nil {
			t.Fatal(err)
		}
		next++
	}
	// Append keeps only a copy of the header: it allocates nothing beyond
	// the parent's amortized buffered-writer cost.
	if n := testing.AllocsPerRun(500, appendOne); n > 0 {
		t.Errorf("Append: %v allocs per entry, want 0", n)
	}
	// A memory hit costs the same two allocations at any span.
	for _, span := range []uint64{1, 64, 256} {
		to := next - 1
		if n := testing.AllocsPerRun(100, func() {
			if _, err := l.Entries(to-span+1, to); err != nil {
				t.Fatal(err)
			}
		}); n > 2 {
			t.Errorf("Entries over %d held entries: %v allocs, want at most 2", span, n)
		}
	}
}
