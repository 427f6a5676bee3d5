package binlog

// lifecycle_test.go covers the bounded-log lifecycle: PurgeTo edge
// cases (mid-file purge points, purging everything but the tail, the
// crash window between file unlink and index rewrite) and ResetTo (the
// snapshot-install reset with its anchor header event).

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"myraft/internal/gtid"
	"myraft/internal/opid"
)

// buildRotatedLog appends entries 1..n, rotating after every per entries
// so the log spans multiple files.
func buildRotatedLog(t *testing.T, dir string, n, per uint64) *Log {
	t.Helper()
	l := openTestLog(t, Options{Dir: dir})
	for i := uint64(1); i <= n; i++ {
		if err := l.Append(normalEntry(1, i, fmt.Sprintf("p%d", i))); err != nil {
			t.Fatal(err)
		}
		if i%per == 0 && i != n {
			if err := l.Rotate(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	return l
}

func TestPurgeToMidFileKeepsWholeFile(t *testing.T) {
	// Files: [1-3] [4-6] [7-9]. Purging to 5 may only drop [1-3]: file
	// [4-6] still holds live entries at and above the purge point.
	l := buildRotatedLog(t, t.TempDir(), 9, 3)
	if err := l.PurgeTo(5); err != nil {
		t.Fatal(err)
	}
	if got := l.FirstIndex(); got != 4 {
		t.Fatalf("FirstIndex = %d, want 4", got)
	}
	for i := uint64(4); i <= 9; i++ {
		if _, err := l.Entry(i); err != nil {
			t.Fatalf("Entry(%d) after mid-file purge: %v", i, err)
		}
	}
	if _, err := l.Entry(3); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Entry(3) = %v, want ErrNotFound", err)
	}
	if n := len(l.Files()); n != 2 {
		t.Fatalf("files after purge = %d, want 2", n)
	}
}

func TestPurgeEverything(t *testing.T) {
	// Purging past the tail drops every file except the active one, which
	// is never removed; the tail entries stay readable.
	l := buildRotatedLog(t, t.TempDir(), 9, 3)
	if err := l.PurgeTo(100); err != nil {
		t.Fatal(err)
	}
	files := l.Files()
	if len(files) != 1 {
		t.Fatalf("files after full purge = %d, want 1 (active)", len(files))
	}
	if got := l.FirstIndex(); got != 7 {
		t.Fatalf("FirstIndex = %d, want 7", got)
	}
	if got := l.LastOpID(); got != (opid.OpID{Term: 1, Index: 9}) {
		t.Fatalf("LastOpID = %v", got)
	}
	// Appends continue seamlessly.
	if err := l.Append(normalEntry(1, 10, "after")); err != nil {
		t.Fatal(err)
	}
}

func TestPurgeSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	l := buildRotatedLog(t, dir, 9, 3)
	want := l.GTIDSet()
	if err := l.PurgeTo(7); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re := openTestLog(t, Options{Dir: dir})
	if got := re.FirstIndex(); got != 7 {
		t.Fatalf("FirstIndex after reopen = %d, want 7", got)
	}
	if got := re.LastOpID(); got != (opid.OpID{Term: 1, Index: 9}) {
		t.Fatalf("LastOpID after reopen = %v", got)
	}
	// gtid_executed semantics: purged GTIDs stay in the set, carried by
	// the surviving file's PrevGTIDs header.
	if got := re.GTIDSet(); !got.Equal(want) {
		t.Fatalf("GTIDSet after reopen = %v, want %v", got, want)
	}
}

func TestPurgeCrashBetweenUnlinkAndIndexRewrite(t *testing.T) {
	// Simulate the purge crash window: the files are gone but the index
	// still lists them. Open must skip the missing files, keep the
	// survivors, and rewrite a corrected index.
	dir := t.TempDir()
	l := buildRotatedLog(t, dir, 9, 3)
	files := l.Files()
	want := l.GTIDSet()
	l.Crash()
	for _, f := range files[:2] {
		if err := os.Remove(filepath.Join(dir, f.Name)); err != nil {
			t.Fatal(err)
		}
	}

	re := openTestLog(t, Options{Dir: dir})
	if got := re.FirstIndex(); got != 7 {
		t.Fatalf("FirstIndex = %d, want 7", got)
	}
	if got := re.LastOpID(); got != (opid.OpID{Term: 1, Index: 9}) {
		t.Fatalf("LastOpID = %v", got)
	}
	if got := re.GTIDSet(); !got.Equal(want) {
		t.Fatalf("GTIDSet = %v, want %v", got, want)
	}
	if n := len(re.Files()); n != 1 {
		t.Fatalf("files = %d, want 1", n)
	}
	// The corrected index must have been persisted: a second reopen sees
	// the same state without relying on skip-missing again.
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	idx, err := os.ReadFile(filepath.Join(dir, indexFileName))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files[:2] {
		if string(idx) != "" && containsLine(string(idx), f.Name) {
			t.Fatalf("index still lists purged file %s:\n%s", f.Name, idx)
		}
	}
	re2 := openTestLog(t, Options{Dir: dir})
	if got := re2.FirstIndex(); got != 7 {
		t.Fatalf("FirstIndex on second reopen = %d, want 7", got)
	}
}

func containsLine(index, name string) bool {
	for _, line := range splitLines(index) {
		if line == name {
			return true
		}
	}
	return false
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

func TestResetToAnchorsLog(t *testing.T) {
	dir := t.TempDir()
	l := buildRotatedLog(t, dir, 5, 2)
	gtids := gtid.NewSet()
	for i := int64(1); i <= 42; i++ {
		gtids.Add(gtid.GTID{Source: "snap-src", ID: i})
	}
	anchor := opid.OpID{Term: 3, Index: 42}
	if err := l.ResetTo(anchor, gtids); err != nil {
		t.Fatal(err)
	}
	if got := l.LastOpID(); got != anchor {
		t.Fatalf("LastOpID = %v, want %v", got, anchor)
	}
	if got := l.Anchor(); got != anchor {
		t.Fatalf("Anchor = %v, want %v", got, anchor)
	}
	if got := l.FirstIndex(); got != 0 {
		t.Fatalf("FirstIndex = %d, want 0 (no entries)", got)
	}
	if got := l.GTIDSet(); !got.Equal(gtids) {
		t.Fatalf("GTIDSet = %v, want %v", got, gtids)
	}
	// Appends must chain at anchor+1.
	if err := l.Append(normalEntry(3, 17, "wrong")); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("append at 17 = %v, want ErrOutOfOrder", err)
	}
	if err := l.Append(normalEntry(3, 43, "right")); err != nil {
		t.Fatal(err)
	}
	if got := l.FirstIndex(); got != 43 {
		t.Fatalf("FirstIndex after first append = %d, want 43", got)
	}
}

func TestResetToSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	l := buildRotatedLog(t, dir, 5, 2)
	anchor := opid.OpID{Term: 2, Index: 30}
	gtids := gtid.NewSet()
	gtids.AddInterval("s", gtid.Interval{First: 1, Last: 30})
	if err := l.ResetTo(anchor, gtids); err != nil {
		t.Fatal(err)
	}
	l.Crash() // reset itself is synced; a crash right after must not lose it

	re := openTestLog(t, Options{Dir: dir})
	if got := re.LastOpID(); got != anchor {
		t.Fatalf("LastOpID after reopen = %v, want %v", got, anchor)
	}
	if got := re.Anchor(); got != anchor {
		t.Fatalf("Anchor after reopen = %v, want %v", got, anchor)
	}
	if got := re.GTIDSet(); !got.Equal(gtids) {
		t.Fatalf("GTIDSet after reopen = %v, want %v", got, gtids)
	}
	if err := re.Append(normalEntry(2, 31, "resume")); err != nil {
		t.Fatal(err)
	}
	if err := re.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2 := openTestLog(t, Options{Dir: dir})
	if got := re2.LastOpID(); got != (opid.OpID{Term: 2, Index: 31}) {
		t.Fatalf("LastOpID after second reopen = %v", got)
	}
	if got := re2.FirstIndex(); got != 31 {
		t.Fatalf("FirstIndex after second reopen = %d, want 31", got)
	}
	e, err := re2.Entry(31)
	if err != nil || string(e.Payload) != "resume" {
		t.Fatalf("Entry(31) = %v, %v", e, err)
	}
}

func TestTruncateBackToAnchor(t *testing.T) {
	l := openTestLog(t, Options{})
	anchor := opid.OpID{Term: 2, Index: 10}
	if err := l.ResetTo(anchor, nil); err != nil {
		t.Fatal(err)
	}
	for i := uint64(11); i <= 13; i++ {
		if err := l.Append(normalEntry(2, i, "x")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.TruncateAfter(10); err != nil {
		t.Fatal(err)
	}
	if got := l.LastOpID(); got != anchor {
		t.Fatalf("LastOpID after truncate-to-anchor = %v, want %v", got, anchor)
	}
	if got := l.FirstIndex(); got != 0 {
		t.Fatalf("FirstIndex = %d, want 0", got)
	}
	// The log accepts a fresh tail at anchor+1 again.
	if err := l.Append(normalEntry(3, 11, "retry")); err != nil {
		t.Fatal(err)
	}
}

func TestPurgeAfterReset(t *testing.T) {
	// Reset, append past the anchor with rotations, then purge: FirstIndex
	// advances and the anchor persists in surviving headers.
	dir := t.TempDir()
	l := openTestLog(t, Options{Dir: dir})
	anchor := opid.OpID{Term: 1, Index: 20}
	if err := l.ResetTo(anchor, nil); err != nil {
		t.Fatal(err)
	}
	for i := uint64(21); i <= 26; i++ {
		if err := l.Append(normalEntry(1, i, "x")); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 && i != 26 {
			if err := l.Rotate(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.PurgeTo(25); err != nil {
		t.Fatal(err)
	}
	if got := l.FirstIndex(); got != 25 {
		t.Fatalf("FirstIndex = %d, want 25", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	re := openTestLog(t, Options{Dir: dir})
	if got := re.Anchor(); got != anchor {
		t.Fatalf("Anchor after purge+reopen = %v, want %v", got, anchor)
	}
	if got := re.FirstIndex(); got != 25 {
		t.Fatalf("FirstIndex after reopen = %d, want 25", got)
	}
}

// TestPurgeKeepsFirstIndexPastHeaderOnlyFile: when the oldest surviving
// file holds no entries (two rotations in a row), FirstIndex must still
// name the first entry of the next file, as a reopen would, not report
// an empty log.
func TestPurgeKeepsFirstIndexPastHeaderOnlyFile(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, Options{Dir: dir})
	for i := uint64(1); i <= 6; i++ {
		if err := l.Append(normalEntry(1, i, "p")); err != nil {
			t.Fatal(err)
		}
		if i == 3 {
			l.Rotate()
			l.Rotate()
		}
	}
	if err := l.PurgeTo(5); err != nil {
		t.Fatal(err)
	}
	if got := l.FirstIndex(); got != 4 {
		t.Fatalf("FirstIndex after purge = %d, want 4", got)
	}
	l.Close()
	if got := openTestLog(t, Options{Dir: dir}).FirstIndex(); got != 4 {
		t.Fatalf("FirstIndex after reopen = %d, want 4", got)
	}
}
