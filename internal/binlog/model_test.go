package binlog

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"myraft/internal/gtid"
	"myraft/internal/opid"
)

// TestEntryIndexMatchesModel drives a log through random appends,
// rotations, truncations, purges, resets and reopens, and after every step
// checks Entry and Entries against a model of the live entries. Reopening
// empties the in-memory tail, so reads after it go through the per-file
// entry index.
func TestEntryIndexMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runIndexModel(t, seed) })
	}
}

func runIndexModel(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	l := openTestLog(t, Options{Dir: dir})
	model := map[uint64]*Entry{}
	var first, last uint64 // live range; first == 0 when empty
	term := uint64(1)
	nextIndex := uint64(1)

	for step := 0; step < 300; step++ {
		var what string
		switch op := rng.Intn(100); {
		case op < 60:
			what = "append"
			e := normalEntry(term, nextIndex, fmt.Sprintf("s%d-%d-%x", seed, step, rng.Int63()))
			if rng.Intn(10) == 0 {
				e.Type, e.HasGTID, e.GTID = EntryRotate, false, gtid.GTID{}
			}
			if err := l.Append(e); err != nil {
				t.Fatalf("step %d: append %d: %v", step, nextIndex, err)
			}
			model[nextIndex] = e
			if first == 0 {
				first = nextIndex
			}
			last = nextIndex
			nextIndex++
		case op < 68:
			what = "rotate"
			if err := l.Rotate(); err != nil {
				t.Fatal(err)
			}
		case op < 78:
			if first == 0 {
				continue
			}
			k := first + uint64(rng.Int63n(int64(last-first+1)))
			what = fmt.Sprintf("truncate after %d", k)
			if _, err := l.TruncateAfter(k); err != nil {
				t.Fatalf("step %d: %s: %v", step, what, err)
			}
			for i := k + 1; i <= last; i++ {
				delete(model, i)
			}
			last, nextIndex = k, k+1
			term++ // a new leader's entries follow a truncation
		case op < 86:
			if first == 0 {
				continue
			}
			// Up to the last entry: its file, even if rotated out, stays, and
			// with it the tail position a reopen recovers.
			k := first + uint64(rng.Int63n(int64(last-first+1)))
			what = fmt.Sprintf("purge to %d", k)
			if err := l.PurgeTo(k); err != nil {
				t.Fatalf("step %d: %s: %v", step, what, err)
			}
			// Purge drops whole files only, so the model follows the log's
			// new first index, which must not pass k: every entry below it
			// precedes k.
			newFirst := l.FirstIndex()
			if newFirst < first || newFirst > k {
				t.Fatalf("step %d: %s left first index %d (live %d..%d)", step, what, newFirst, first, last)
			}
			for i := first; i < newFirst; i++ {
				delete(model, i)
			}
			first = newFirst
		case op < 90:
			anchor := last + uint64(rng.Intn(3))
			what = fmt.Sprintf("reset to %d", anchor)
			if err := l.ResetTo(opid.OpID{Term: term, Index: anchor}, nil); err != nil {
				t.Fatal(err)
			}
			clear(model)
			first, last, nextIndex = 0, 0, anchor+1
		default:
			what = "reopen"
			if rng.Intn(2) == 0 {
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
			} else {
				// A crash after a sync loses nothing.
				if err := l.Sync(); err != nil {
					t.Fatal(err)
				}
				l.Crash()
			}
			var err error
			if l, err = Open(Options{Dir: dir}); err != nil {
				t.Fatalf("step %d: reopen: %v", step, err)
			}
			t.Cleanup(func() { l.Close() })
		}
		checkIndexModel(t, rng, l, model, first, last, fmt.Sprintf("step %d (%s)", step, what))
	}
}

func checkIndexModel(t *testing.T, rng *rand.Rand, l *Log, model map[uint64]*Entry, first, last uint64, when string) {
	t.Helper()
	same := func(got, want *Entry) bool {
		return got.OpID == want.OpID && got.Type == want.Type && got.HasGTID == want.HasGTID &&
			got.GTID == want.GTID && string(got.Payload) == string(want.Payload)
	}
	if first == 0 {
		if got := l.FirstIndex(); got != 0 {
			t.Fatalf("%s: FirstIndex = %d on an empty log", when, got)
		}
		return
	}
	if got := l.FirstIndex(); got != first || l.LastOpID().Index != last {
		t.Fatalf("%s: range %d..%d, want %d..%d", when, got, l.LastOpID().Index, first, last)
	}
	for i := first; i <= last; i++ {
		e, err := l.Entry(i)
		if err != nil || !same(e, model[i]) {
			t.Fatalf("%s: Entry(%d) = %+v, %v; want %+v", when, i, e, err, model[i])
		}
	}
	for _, absent := range []uint64{first - 1, last + 1} {
		if absent == 0 {
			continue
		}
		if _, err := l.Entry(absent); !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s: Entry(%d) outside %d..%d = %v, want ErrNotFound", when, absent, first, last, err)
		}
	}
	from := first + uint64(rng.Int63n(int64(last-first+1)))
	to := from + uint64(rng.Int63n(int64(last-from+1)))
	for _, r := range [][2]uint64{{first, last}, {from, to}} {
		got, err := l.Entries(r[0], r[1])
		if err != nil || uint64(len(got)) != r[1]-r[0]+1 {
			t.Fatalf("%s: Entries(%d, %d) = %d entries, %v", when, r[0], r[1], len(got), err)
		}
		for k, e := range got {
			if !same(e, model[r[0]+uint64(k)]) {
				t.Fatalf("%s: Entries(%d, %d)[%d] = %+v, want %+v", when, r[0], r[1], k, e, model[r[0]+uint64(k)])
			}
		}
	}
}
