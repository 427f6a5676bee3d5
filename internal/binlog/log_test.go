package binlog

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"myraft/internal/gtid"
	"myraft/internal/opid"
)

func openTestLog(t *testing.T, opts Options) *Log {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func normalEntry(term, index uint64, payload string) *Entry {
	return &Entry{
		OpID:    opid.OpID{Term: term, Index: index},
		Type:    EntryNormal,
		HasGTID: true,
		GTID:    gtid.GTID{Source: "src-1", ID: int64(index)},
		Payload: []byte(payload),
	}
}

func TestAppendAndReadBack(t *testing.T) {
	l := openTestLog(t, Options{})
	for i := uint64(1); i <= 10; i++ {
		if err := l.Append(normalEntry(1, i, fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 10; i++ {
		e, err := l.Entry(i)
		if err != nil {
			t.Fatalf("Entry(%d): %v", i, err)
		}
		if string(e.Payload) != fmt.Sprintf("payload-%d", i) {
			t.Fatalf("Entry(%d) payload = %q", i, e.Payload)
		}
		if e.GTID.ID != int64(i) {
			t.Fatalf("Entry(%d) gtid = %v", i, e.GTID)
		}
	}
	if got := l.LastOpID(); got != (opid.OpID{Term: 1, Index: 10}) {
		t.Fatalf("LastOpID = %v", got)
	}
	if got := l.FirstIndex(); got != 1 {
		t.Fatalf("FirstIndex = %d", got)
	}
}

func TestEntriesRangeRead(t *testing.T) {
	l := openTestLog(t, Options{})
	// Spread the range across three files so the span coalescer has
	// real file boundaries to cross.
	for i := uint64(1); i <= 30; i++ {
		if err := l.Append(normalEntry(1, i, fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 && i < 30 {
			if err := l.Rotate(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct{ from, to uint64 }{
		{1, 30},  // whole log, all three files
		{5, 25},  // interior range crossing both boundaries
		{11, 20}, // exactly one non-first file
		{7, 7},   // single entry
	} {
		entries, err := l.Entries(tc.from, tc.to)
		if err != nil {
			t.Fatalf("Entries(%d, %d): %v", tc.from, tc.to, err)
		}
		if len(entries) != int(tc.to-tc.from+1) {
			t.Fatalf("Entries(%d, %d) returned %d entries", tc.from, tc.to, len(entries))
		}
		for j, e := range entries {
			want := tc.from + uint64(j)
			if e.OpID.Index != want || string(e.Payload) != fmt.Sprintf("payload-%d", want) {
				t.Fatalf("Entries(%d, %d)[%d] = index %d payload %q", tc.from, tc.to, j, e.OpID.Index, e.Payload)
			}
		}
	}
	// Inverted and out-of-window ranges fail cleanly.
	if entries, err := l.Entries(9, 3); err != nil || entries != nil {
		t.Fatalf("Entries(9, 3) = %v, %v", entries, err)
	}
	if _, err := l.Entries(25, 40); err == nil {
		t.Fatal("Entries past the tail succeeded")
	}
	// A buffered (unsynced) tail is still readable: Entries flushes first,
	// matching Entry's semantics.
	if err := l.Append(normalEntry(1, 31, "payload-31")); err != nil {
		t.Fatal(err)
	}
	entries, err := l.Entries(30, 31)
	if err != nil || len(entries) != 2 {
		t.Fatalf("Entries over unsynced tail = %d entries, %v", len(entries), err)
	}
}

func TestAppendOutOfOrderRejected(t *testing.T) {
	l := openTestLog(t, Options{})
	if err := l.Append(normalEntry(1, 1, "a")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(normalEntry(1, 3, "skip")); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("gap append err = %v, want ErrOutOfOrder", err)
	}
	if err := l.Append(normalEntry(1, 1, "dup")); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("dup append err = %v, want ErrOutOfOrder", err)
	}
	if err := l.Append(&Entry{OpID: opid.OpID{Term: 0, Index: 2}, Type: EntryNoOp}); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("term-regression append err = %v, want ErrOutOfOrder", err)
	}
}

func TestAppendStartsMidStream(t *testing.T) {
	// A follower joining late starts its relay log at an arbitrary index.
	l := openTestLog(t, Options{Persona: PersonaRelay})
	if err := l.Append(normalEntry(3, 100, "x")); err != nil {
		t.Fatal(err)
	}
	if l.FirstIndex() != 100 {
		t.Fatalf("FirstIndex = %d", l.FirstIndex())
	}
}

func TestEntryNotFound(t *testing.T) {
	l := openTestLog(t, Options{})
	if _, err := l.Entry(5); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestLargePayloadChunking(t *testing.T) {
	l := openTestLog(t, Options{})
	payload := bytes.Repeat([]byte("x"), 3*rowChunkSize+100)
	e := &Entry{OpID: opid.OpID{Term: 1, Index: 1}, Type: EntryNormal, HasGTID: true,
		GTID: gtid.GTID{Source: "s", ID: 1}, Payload: payload}
	if err := l.Append(e); err != nil {
		t.Fatal(err)
	}
	got, err := l.Entry(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Payload, payload) {
		t.Fatal("large payload mismatch")
	}
}

func TestEmptyPayloadNoOp(t *testing.T) {
	l := openTestLog(t, Options{})
	if err := l.Append(&Entry{OpID: opid.OpID{Term: 2, Index: 1}, Type: EntryNoOp}); err != nil {
		t.Fatal(err)
	}
	e, err := l.Entry(1)
	if err != nil {
		t.Fatal(err)
	}
	if e.Type != EntryNoOp || e.HasGTID || len(e.Payload) != 0 {
		t.Fatalf("noop round trip: %+v", e)
	}
}

func TestScan(t *testing.T) {
	l := openTestLog(t, Options{})
	for i := uint64(1); i <= 5; i++ {
		if err := l.Append(normalEntry(1, i, "p")); err != nil {
			t.Fatal(err)
		}
	}
	var seen []uint64
	if err := l.Scan(3, func(e *Entry) bool {
		seen = append(seen, e.OpID.Index)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 || seen[0] != 3 || seen[2] != 5 {
		t.Fatalf("seen = %v", seen)
	}
	// Early stop.
	seen = nil
	l.Scan(1, func(e *Entry) bool {
		seen = append(seen, e.OpID.Index)
		return len(seen) < 2
	})
	if len(seen) != 2 {
		t.Fatalf("early stop seen = %v", seen)
	}
}

func TestReopenRecoversState(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, Options{Dir: dir})
	for i := uint64(1); i <= 7; i++ {
		if err := l.Append(normalEntry(2, i, "p")); err != nil {
			t.Fatal(err)
		}
	}
	wantGTIDs := l.GTIDSet()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := openTestLog(t, Options{Dir: dir})
	if got := l2.LastOpID(); got != (opid.OpID{Term: 2, Index: 7}) {
		t.Fatalf("recovered LastOpID = %v", got)
	}
	if !l2.GTIDSet().Equal(wantGTIDs) {
		t.Fatalf("recovered gtids = %s, want %s", l2.GTIDSet(), wantGTIDs)
	}
	// Appends continue after recovery.
	if err := l2.Append(normalEntry(2, 8, "post")); err != nil {
		t.Fatal(err)
	}
	e, err := l2.Entry(8)
	if err != nil || string(e.Payload) != "post" {
		t.Fatalf("post-recovery entry: %v %v", e, err)
	}
}

func TestTornTailTruncatedOnRecovery(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, Options{Dir: dir})
	for i := uint64(1); i <= 3; i++ {
		if err := l.Append(normalEntry(1, i, "payload")); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Corrupt the file by chopping bytes off the tail (torn write).
	files := l.Files()
	path := filepath.Join(dir, files[len(files)-1].Name)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-10); err != nil {
		t.Fatal(err)
	}

	l2 := openTestLog(t, Options{Dir: dir})
	if got := l2.LastOpID().Index; got != 2 {
		t.Fatalf("after torn tail, LastOpID.Index = %d, want 2", got)
	}
	// The torn transaction's GTID must be gone.
	if l2.GTIDSet().Contains(gtid.GTID{Source: "src-1", ID: 3}) {
		t.Fatal("torn entry's GTID survived recovery")
	}
	// New appends at index 3 succeed.
	if err := l2.Append(normalEntry(2, 3, "replacement")); err != nil {
		t.Fatal(err)
	}
}

func TestRotateViaEntry(t *testing.T) {
	l := openTestLog(t, Options{})
	if err := l.Append(normalEntry(1, 1, "a")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(&Entry{OpID: opid.OpID{Term: 1, Index: 2}, Type: EntryRotate}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(normalEntry(1, 3, "b")); err != nil {
		t.Fatal(err)
	}
	files := l.Files()
	if len(files) != 2 {
		t.Fatalf("files = %d, want 2", len(files))
	}
	if files[0].LastIndex != 2 || files[1].FirstIndex != 3 {
		t.Fatalf("file boundaries wrong: %+v", files)
	}
	// Entries on both sides of the boundary are readable.
	for _, idx := range []uint64{1, 2, 3} {
		if _, err := l.Entry(idx); err != nil {
			t.Fatalf("Entry(%d): %v", idx, err)
		}
	}
}

func TestRotatedFileCarriesPrevGTIDs(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, Options{Dir: dir})
	for i := uint64(1); i <= 3; i++ {
		if err := l.Append(normalEntry(1, i, "x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(normalEntry(1, 4, "y")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Remove the first file from disk and the index, simulating a purge,
	// then reopen: the GTIDs of the purged entries must be recovered from
	// the second file's previous-GTIDs header.
	files := l.Files()
	if err := os.Remove(filepath.Join(dir, files[0].Name)); err != nil {
		t.Fatal(err)
	}
	idx := filepath.Join(dir, indexFileName)
	if err := os.WriteFile(idx, []byte(files[1].Name+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	l2 := openTestLog(t, Options{Dir: dir})
	for i := int64(1); i <= 4; i++ {
		if !l2.GTIDSet().Contains(gtid.GTID{Source: "src-1", ID: i}) {
			t.Fatalf("gtid %d missing after header recovery; set=%s", i, l2.GTIDSet())
		}
	}
}

func TestTruncateAfterMidFile(t *testing.T) {
	l := openTestLog(t, Options{})
	for i := uint64(1); i <= 10; i++ {
		if err := l.Append(normalEntry(1, i, "x")); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := l.TruncateAfter(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 4 || removed[0].OpID.Index != 7 || removed[3].OpID.Index != 10 {
		t.Fatalf("removed = %v", removed)
	}
	if got := l.LastOpID().Index; got != 6 {
		t.Fatalf("LastOpID = %v", l.LastOpID())
	}
	for i := int64(7); i <= 10; i++ {
		if l.GTIDSet().Contains(gtid.GTID{Source: "src-1", ID: i}) {
			t.Fatalf("truncated GTID %d still present", i)
		}
	}
	if _, err := l.Entry(7); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Entry(7) after truncate: %v", err)
	}
	// Appends continue at 7 with a higher term (new leader's entries).
	if err := l.Append(normalEntry(2, 7, "new")); err != nil {
		t.Fatal(err)
	}
	e, err := l.Entry(7)
	if err != nil || string(e.Payload) != "new" {
		t.Fatalf("replacement entry: %v %v", e, err)
	}
}

func TestTruncateAcrossFiles(t *testing.T) {
	l := openTestLog(t, Options{})
	for i := uint64(1); i <= 3; i++ {
		if err := l.Append(normalEntry(1, i, "a")); err != nil {
			t.Fatal(err)
		}
	}
	l.Rotate()
	for i := uint64(4); i <= 6; i++ {
		if err := l.Append(normalEntry(1, i, "b")); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := l.TruncateAfter(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 4 {
		t.Fatalf("removed %d entries, want 4", len(removed))
	}
	if len(l.Files()) != 1 {
		t.Fatalf("files = %v", l.Files())
	}
	if l.LastOpID().Index != 2 {
		t.Fatalf("LastOpID = %v", l.LastOpID())
	}
	if err := l.Append(normalEntry(2, 3, "c")); err != nil {
		t.Fatal(err)
	}
}

func TestTruncateNoopWhenAtOrPastTail(t *testing.T) {
	l := openTestLog(t, Options{})
	l.Append(normalEntry(1, 1, "a"))
	removed, err := l.TruncateAfter(1)
	if err != nil || removed != nil {
		t.Fatalf("truncate at tail: %v %v", removed, err)
	}
	removed, err = l.TruncateAfter(99)
	if err != nil || removed != nil {
		t.Fatalf("truncate past tail: %v %v", removed, err)
	}
}

func TestTruncateToEmpty(t *testing.T) {
	l := openTestLog(t, Options{})
	for i := uint64(1); i <= 3; i++ {
		l.Append(normalEntry(1, i, "x"))
	}
	removed, err := l.TruncateAfter(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 3 {
		t.Fatalf("removed = %d", len(removed))
	}
	if !l.LastOpID().IsZero() || l.FirstIndex() != 0 {
		t.Fatalf("log not empty: last=%v first=%d", l.LastOpID(), l.FirstIndex())
	}
	if err := l.Append(normalEntry(5, 1, "fresh")); err != nil {
		t.Fatal(err)
	}
}

func TestPurgeTo(t *testing.T) {
	l := openTestLog(t, Options{})
	for i := uint64(1); i <= 3; i++ {
		l.Append(normalEntry(1, i, "a"))
	}
	l.Rotate()
	for i := uint64(4); i <= 6; i++ {
		l.Append(normalEntry(1, i, "b"))
	}
	l.Rotate()
	for i := uint64(7); i <= 9; i++ {
		l.Append(normalEntry(1, i, "c"))
	}
	if err := l.PurgeTo(5); err != nil {
		t.Fatal(err)
	}
	if got := l.FirstIndex(); got != 4 {
		t.Fatalf("FirstIndex after purge = %d, want 4", got)
	}
	if _, err := l.Entry(3); !errors.Is(err, ErrNotFound) {
		t.Fatalf("purged entry readable: %v", err)
	}
	if _, err := l.Entry(4); err != nil {
		t.Fatalf("surviving entry unreadable: %v", err)
	}
	// Purged GTIDs remain executed (MySQL semantics).
	if !l.GTIDSet().Contains(gtid.GTID{Source: "src-1", ID: 1}) {
		t.Fatal("purged GTID dropped from executed set")
	}
	if len(l.Files()) != 2 {
		t.Fatalf("files = %v", l.Files())
	}
}

func TestPurgeNeverRemovesActiveFile(t *testing.T) {
	l := openTestLog(t, Options{})
	for i := uint64(1); i <= 3; i++ {
		l.Append(normalEntry(1, i, "a"))
	}
	if err := l.PurgeTo(100); err != nil {
		t.Fatal(err)
	}
	if len(l.Files()) != 1 {
		t.Fatal("active file purged")
	}
	if _, err := l.Entry(1); err != nil {
		t.Fatalf("entry lost: %v", err)
	}
}

func TestPersonaRewiring(t *testing.T) {
	l := openTestLog(t, Options{Persona: PersonaRelay})
	l.Append(normalEntry(1, 1, "replica-era"))
	if err := l.SetPersona(PersonaBinlog); err != nil {
		t.Fatal(err)
	}
	l.Append(normalEntry(2, 2, "primary-era"))
	files := l.Files()
	if len(files) != 2 {
		t.Fatalf("files = %v", files)
	}
	if !strings.HasPrefix(files[0].Name, "relaylog.") {
		t.Fatalf("first file = %q", files[0].Name)
	}
	if !strings.HasPrefix(files[1].Name, "binlog.") {
		t.Fatalf("second file = %q", files[1].Name)
	}
	// Entry sequence is continuous across the rewire.
	for _, idx := range []uint64{1, 2} {
		if _, err := l.Entry(idx); err != nil {
			t.Fatalf("Entry(%d): %v", idx, err)
		}
	}
	if l.Persona() != PersonaBinlog {
		t.Fatal("persona not updated")
	}
	// Setting the same persona again is a no-op.
	if err := l.SetPersona(PersonaBinlog); err != nil {
		t.Fatal(err)
	}
	if len(l.Files()) != 2 {
		t.Fatal("redundant SetPersona rotated")
	}
}

func TestChecksumEqualAcrossIdenticalLogs(t *testing.T) {
	a := openTestLog(t, Options{})
	b := openTestLog(t, Options{Persona: PersonaRelay})
	for i := uint64(1); i <= 20; i++ {
		e := normalEntry(1, i, fmt.Sprintf("payload-%d", i))
		if err := a.Append(e); err != nil {
			t.Fatal(err)
		}
		if err := b.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	ca, err := a.Checksum(1)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.Checksum(1)
	if err != nil {
		t.Fatal(err)
	}
	if ca != cb {
		t.Fatalf("checksums differ: %08x vs %08x", ca, cb)
	}
}

func TestChecksumDetectsDivergence(t *testing.T) {
	a := openTestLog(t, Options{})
	b := openTestLog(t, Options{})
	a.Append(normalEntry(1, 1, "same"))
	b.Append(normalEntry(1, 1, "different"))
	ca, _ := a.Checksum(1)
	cb, _ := b.Checksum(1)
	if ca == cb {
		t.Fatal("divergent logs have equal checksums")
	}
}

func TestCorruptEntryDetectedOnRead(t *testing.T) {
	dir := t.TempDir()
	w := openTestLog(t, Options{Dir: dir})
	w.Append(normalEntry(1, 1, "payload-to-corrupt"))
	w.Sync()
	w.Close()
	// A reopened log starts with an empty in-memory tail, so the read
	// below takes the file path, which is the one that verifies checksums.
	l := openTestLog(t, Options{Dir: dir})
	files := l.Files()
	path := filepath.Join(dir, files[0].Name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the payload region (near the end, before the
	// final CRC of the Xid event; target the Rows event body).
	data[len(data)-30] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Entry(1); err == nil {
		t.Fatal("corrupted entry read succeeded")
	}
}

func TestEntryRoundTripProperty(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	idx := uint64(0)
	f := func(payload []byte, term uint16, hasGTID bool, gid uint16) bool {
		idx++
		e := &Entry{
			OpID:    opid.OpID{Term: 1000 + uint64(term), Index: idx},
			Type:    EntryNormal,
			HasGTID: hasGTID,
			Payload: payload,
		}
		// Terms must be monotone; use a fixed high term.
		e.OpID.Term = 1000
		if hasGTID {
			e.GTID = gtid.GTID{Source: "prop", ID: int64(gid) + 1}
		}
		if err := l.Append(e); err != nil {
			t.Logf("append: %v", err)
			return false
		}
		got, err := l.Entry(idx)
		if err != nil {
			t.Logf("read: %v", err)
			return false
		}
		return got.Equal(e)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFilesListing(t *testing.T) {
	l := openTestLog(t, Options{})
	l.Append(normalEntry(1, 1, "a"))
	files := l.Files()
	if len(files) != 1 || files[0].FirstIndex != 1 || files[0].LastIndex != 1 {
		t.Fatalf("files = %+v", files)
	}
	if files[0].Size == 0 {
		t.Fatal("file size not tracked")
	}
}

func TestGTIDSetIsCopy(t *testing.T) {
	l := openTestLog(t, Options{})
	l.Append(normalEntry(1, 1, "a"))
	s := l.GTIDSet()
	s.Add(gtid.GTID{Source: "evil", ID: 1})
	if l.GTIDSet().Contains(gtid.GTID{Source: "evil", ID: 1}) {
		t.Fatal("GTIDSet returned internal state")
	}
}

func TestReopenAfterRotateRecoversAllFiles(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, Options{Dir: dir})
	for i := uint64(1); i <= 2; i++ {
		l.Append(normalEntry(1, i, "a"))
	}
	l.Rotate()
	for i := uint64(3); i <= 4; i++ {
		l.Append(normalEntry(1, i, "b"))
	}
	l.Close()
	l2 := openTestLog(t, Options{Dir: dir})
	if len(l2.Files()) != 2 {
		t.Fatalf("recovered files = %v", l2.Files())
	}
	for i := uint64(1); i <= 4; i++ {
		if _, err := l2.Entry(i); err != nil {
			t.Fatalf("Entry(%d): %v", i, err)
		}
	}
	if err := l2.Append(normalEntry(1, 5, "c")); err != nil {
		t.Fatal(err)
	}
}

// Property: a log file with arbitrary corruption anywhere past the header
// either recovers a prefix or reports corruption — Open never panics and
// never invents entries.
func TestOpenRobustToCorruptionProperty(t *testing.T) {
	// Build a clean 5-entry log once.
	base := t.TempDir()
	l, err := Open(Options{Dir: base})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 5; i++ {
		l.Append(normalEntry(1, i, fmt.Sprintf("payload-%d", i)))
	}
	l.Sync()
	files := l.Files()
	l.Close()
	clean, err := os.ReadFile(filepath.Join(base, files[0].Name))
	if err != nil {
		t.Fatal(err)
	}

	f := func(offset uint16, flip byte) bool {
		if flip == 0 {
			flip = 0xff
		}
		dir := t.TempDir()
		data := append([]byte(nil), clean...)
		pos := int(offset) % len(data)
		data[pos] ^= flip
		os.WriteFile(filepath.Join(dir, files[0].Name), data, 0o644)
		os.WriteFile(filepath.Join(dir, indexFileName), []byte(files[0].Name+"\n"), 0o644)
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("panic at corrupt offset %d: %v", pos, r)
			}
		}()
		l2, err := Open(Options{Dir: dir})
		if err != nil {
			return true // corruption detected: acceptable
		}
		defer l2.Close()
		// Recovered prefix must verify entry-by-entry.
		last := l2.LastOpID().Index
		if last > 5 {
			return false
		}
		for i := uint64(1); i <= last; i++ {
			e, err := l2.Entry(i)
			if err != nil || string(e.Payload) != fmt.Sprintf("payload-%d", i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestSyncCoalescesWhenClean(t *testing.T) {
	l := openTestLog(t, Options{})
	if l.UnsyncedBytes() != 0 {
		t.Fatalf("fresh log unsynced = %d", l.UnsyncedBytes())
	}
	// The fresh header counts as dirty until the first sync.
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(normalEntry(1, 1, "payload")); err != nil {
		t.Fatal(err)
	}
	if l.UnsyncedBytes() == 0 {
		t.Fatal("append did not raise unsynced bytes")
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if l.UnsyncedBytes() != 0 {
		t.Fatalf("unsynced = %d after sync", l.UnsyncedBytes())
	}
	// A redundant Sync with nothing new written must be a no-op (this is
	// what lets the raft writer and the commit pipeline both request
	// durability without doubling fsyncs). Close the fd out from under
	// the log: a real fsync would now fail, a coalesced no-op succeeds.
	l.mu.Lock()
	f := l.f
	l.mu.Unlock()
	f.Close()
	if err := l.Sync(); err != nil {
		t.Fatalf("clean sync was not coalesced: %v", err)
	}
}

// damageEntry writes ten synced entries (rotating after rotateAfter when it
// is non-zero), closes the log, flips one byte in the middle of entry
// index and returns the directory, the damaged file and the entry's
// offset in it.
func damageEntry(t *testing.T, rotateAfter, index uint64) (dir, file string, offset int64) {
	t.Helper()
	dir = t.TempDir()
	l := openTestLog(t, Options{Dir: dir})
	for i := uint64(1); i <= 10; i++ {
		if err := l.Append(normalEntry(1, i, fmt.Sprintf("payload-%02d", i))); err != nil {
			t.Fatal(err)
		}
		if i == rotateAfter {
			if err := l.Rotate(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	loc, _ := l.locateLocked(index)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, loc.file.name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[loc.offset+loc.length/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, loc.file.name, loc.offset
}

// wantCorruptAt asserts that Open reports corruption of the record at
// file:offset, naming index as the first it could not read, and leaves
// the file as it found it.
func wantCorruptAt(t *testing.T, dir, file string, offset int64, index uint64) {
	t.Helper()
	before, err := os.ReadFile(filepath.Join(dir, file))
	if err != nil {
		t.Fatal(err)
	}
	l, err := Open(Options{Dir: dir})
	if err == nil {
		l.Close()
		t.Fatalf("Open succeeded with LastOpID %v over a damaged synced entry", l.LastOpID())
	}
	var ce *ErrCorrupt
	if !errors.As(err, &ce) || ce.File != file || ce.Offset != offset || ce.Index != index {
		t.Fatalf("Open error = %v, want ErrCorrupt in %s at offset %d, first unreadable index %d", err, file, offset, index)
	}
	after, err := os.ReadFile(filepath.Join(dir, file))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("Open rewrote %s (%d → %d bytes) after finding it corrupt", file, len(before), len(after))
	}
}

// A damaged record followed by decodable entries is corruption, not a torn
// tail: trimming it would delete synced entries 4–10.
func TestOpenReportsCorruptRecordBeforeValidEntries(t *testing.T) {
	dir, file, offset := damageEntry(t, 0, 4)
	wantCorruptAt(t, dir, file, offset, 4)
}

// Damage in a file that is not the active one is corruption wherever it
// is: skipping it would leave a hole at 3–5 under a LastOpID of 10.
func TestOpenReportsCorruptRecordInRotatedFile(t *testing.T) {
	dir, file, offset := damageEntry(t, 5, 3)
	wantCorruptAt(t, dir, file, offset, 3)
	// Its last record too: only the active file can end torn.
	dir, file, offset = damageEntry(t, 5, 5)
	wantCorruptAt(t, dir, file, offset, 5)
}

// A damaged last record of the active file cannot be told from a torn
// write, so it is trimmed as one.
func TestOpenTrimsDamagedLastRecordAsTornTail(t *testing.T) {
	dir, _, _ := damageEntry(t, 0, 10)
	l := openTestLog(t, Options{Dir: dir})
	if got := l.LastOpID().Index; got != 9 {
		t.Fatalf("LastOpID.Index = %d, want 9", got)
	}
	if err := l.Append(normalEntry(1, 10, "replacement")); err != nil {
		t.Fatal(err)
	}
}
