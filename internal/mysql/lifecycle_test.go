package mysql

import (
	"context"
	"fmt"
	"testing"
	"time"

	"myraft/internal/binlog"
	"myraft/internal/gtid"
	"myraft/internal/opid"
	"myraft/internal/storage"
)

// feedRotate appends a rotate marker to the replica's relay log, starting
// a new file.
func (r *replicaHarness) feedRotate(t *testing.T) opid.OpID {
	t.Helper()
	op := opid.OpID{Term: 1, Index: r.next}
	if err := r.s.Log().Append(&binlog.Entry{OpID: op, Type: binlog.EntryRotate}); err != nil {
		t.Fatal(err)
	}
	r.f.mu.Lock()
	r.f.next = r.next + 1
	r.f.mu.Unlock()
	r.next++
	return op
}

func waitApplied(t *testing.T, s *Server, index uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.ApplyStatus().Position >= index {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("applier never reached %d (at %d)", index, s.ApplyStatus().Position)
}

// TestPurgeLogsToGuardApplierPosition: a purge floor ahead of the
// applier's position is clamped so unapplied entries survive.
func TestPurgeLogsToGuardApplierPosition(t *testing.T) {
	r := newReplica(t)
	// Files: [1-4][5-8][9-10 active].
	for i := 0; i < 3; i++ {
		r.feed(t, []storage.RowChange{{Key: fmt.Sprintf("k%d", i), After: []byte("v")}})
	}
	r.feedRotate(t) // 4
	for i := 3; i < 6; i++ {
		r.feed(t, []storage.RowChange{{Key: fmt.Sprintf("k%d", i), After: []byte("v")}})
	}
	r.feedRotate(t) // 8
	for i := 6; i < 8; i++ {
		r.feed(t, []storage.RowChange{{Key: fmt.Sprintf("k%d", i), After: []byte("v")}})
	}

	// Only 1-4 are committed and applied; a cluster floor of 100 must not
	// purge the files still holding unapplied entries.
	r.f.release(4)
	waitApplied(t, r.s, 4)
	if err := r.s.PurgeLogsTo(100); err != nil {
		t.Fatal(err)
	}
	if fi := r.s.Log().FirstIndex(); fi != 5 {
		t.Fatalf("FirstIndex after clamped purge = %d, want 5", fi)
	}

	// Once everything is applied, the same floor purges up to the active file.
	r.f.release(10)
	waitApplied(t, r.s, 10)
	if err := r.s.PurgeLogsTo(100); err != nil {
		t.Fatal(err)
	}
	if fi := r.s.Log().FirstIndex(); fi != 9 {
		t.Fatalf("FirstIndex after full purge = %d, want 9", fi)
	}
}

// TestPurgeLogsToGuardCommitIndex: the consensus commit marker bounds the
// purge even when the engine is ahead (regression protection for the
// coordinator driving a stale floor).
func TestPurgeLogsToGuardCommitIndex(t *testing.T) {
	s, f := newPrimary(t)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := s.Set(ctx, fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.FlushBinaryLogs(ctx); err != nil { // 4
		t.Fatal(err)
	}
	for i := 3; i < 6; i++ {
		if _, err := s.Set(ctx, fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.FlushBinaryLogs(ctx); err != nil { // 8
		t.Fatal(err)
	}
	for i := 6; i < 9; i++ {
		if _, err := s.Set(ctx, fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	// Simulate a replicator whose commit marker trails the engine: purge
	// must stop at the marker, not the engine cursor.
	f.mu.Lock()
	f.commit = 5
	f.mu.Unlock()
	if err := s.PurgeLogsTo(100); err != nil {
		t.Fatal(err)
	}
	if fi := s.Log().FirstIndex(); fi != 5 {
		t.Fatalf("FirstIndex with commit=5 = %d, want 5", fi)
	}

	f.mu.Lock()
	f.commit = 11
	f.mu.Unlock()
	if err := s.PurgeLogsTo(100); err != nil {
		t.Fatal(err)
	}
	if fi := s.Log().FirstIndex(); fi != 9 {
		t.Fatalf("FirstIndex with commit=11 = %d, want 9", fi)
	}
}

// TestPurgeFlushesEngineWAL: purge safety must be measured against
// crash-durable engine state, not the in-memory commit cursor. The
// engine buffers WAL records in user space; if purge trusted the
// unflushed cursor, a crash right after would rewind the engine below
// the purge floor with the replay window already deleted, and the
// applier would retry "entry not found" forever (wedging promotion).
func TestPurgeFlushesEngineWAL(t *testing.T) {
	dir := t.TempDir()
	r := newReplicaAt(t, dir)
	// Files: [1-4][5-8][9-10 active], rotates at 4 and 8.
	for i := 0; i < 3; i++ {
		r.feed(t, []storage.RowChange{{Key: fmt.Sprintf("a%d", r.next), After: []byte("v")}})
	}
	r.feedRotate(t) // 4
	for i := 0; i < 3; i++ {
		r.feed(t, []storage.RowChange{{Key: fmt.Sprintf("a%d", r.next), After: []byte("v")}})
	}
	r.feedRotate(t) // 8
	for i := 0; i < 2; i++ {
		r.feed(t, []storage.RowChange{{Key: fmt.Sprintf("a%d", r.next), After: []byte("v")}})
	}
	r.f.release(10)
	waitApplied(t, r.s, 10)

	// Every applied WAL record is still in the user-space buffer here
	// (nothing has synced). Purging must flush them first.
	if err := r.s.PurgeLogsTo(100); err != nil {
		t.Fatal(err)
	}
	if fi := r.s.Log().FirstIndex(); fi != 9 {
		t.Fatalf("FirstIndex after purge = %d, want 9", fi)
	}
	r.s.Crash()

	r2 := newReplicaAt(t, dir)
	if got := r2.s.Engine().LastCommitted().Index; got != 10 {
		t.Fatalf("engine recovered to %d, want 10: purge deleted the replay window without flushing the WAL", got)
	}
	for _, k := range []string{"a1", "a7", "a10"} {
		if _, ok := r2.s.Read(k); !ok {
			t.Fatalf("row %s lost across purge+crash", k)
		}
	}
	// And the applier resumes cleanly from the recovered position.
	r2.next = 11
	r2.feed(t, []storage.RowChange{{Key: "a11", After: []byte("v")}})
	r2.f.release(11)
	waitApplied(t, r2.s, 11)
	if _, ok := r2.s.Read("a11"); !ok {
		t.Fatal("post-restart entry not applied")
	}
}

// TestApplierSkipsPurgedNonDataTail: the purge floor may pass trailing
// non-data entries (rotates, no-ops) the engine cursor never covers.
// After the purge — and after a crash that rewinds the engine to its
// last data entry — the applier must skip the purged non-data gap
// instead of retrying an unreadable index forever.
func TestApplierSkipsPurgedNonDataTail(t *testing.T) {
	dir := t.TempDir()
	r := newReplicaAt(t, dir)
	for i := 0; i < 3; i++ {
		r.feed(t, []storage.RowChange{{Key: fmt.Sprintf("a%d", r.next), After: []byte("v")}})
	}
	r.feedRotate(t) // 4: trailing non-data entry; engine cursor stays at 3.
	r.f.release(4)
	waitApplied(t, r.s, 4)
	if err := r.s.PurgeLogsTo(100); err != nil {
		t.Fatal(err)
	}
	// The rotate holds no engine state, so the floor passes it and the
	// log is down to the empty active file.
	if fi := r.s.Log().FirstIndex(); fi != 0 {
		t.Fatalf("FirstIndex after purge = %d, want 0 (all entries purged)", fi)
	}

	// In-process applier restart (the demotion path): the cursor comes
	// back from the engine (3), below the fully-purged window whose tail
	// OpID is 4. start() must reposition to 4, not spin on entry 4.
	r.s.applier.stop()
	r.s.applier.start()
	if got := r.s.ApplyStatus().Position; got != 4 {
		t.Fatalf("applier restarted at %d, want 4 (skip over purged non-data tail)", got)
	}

	r.s.Crash()

	// Crash-restart: the reopened log is empty (tail OpID metadata gone
	// with it), the engine recovers to 3. Once replication resumes above
	// the gap, the applier must skip to the retention window and apply.
	r2 := newReplicaAt(t, dir)
	r2.next = 5
	r2.f.mu.Lock()
	r2.f.next = 5
	r2.f.commit = 4
	r2.f.mu.Unlock()
	r2.feed(t, []storage.RowChange{{Key: "b5", After: []byte("v")}})
	r2.f.release(5)
	waitApplied(t, r2.s, 5)
	if _, ok := r2.s.Read("b5"); !ok {
		t.Fatal("entry above the purged gap not applied")
	}
	for _, k := range []string{"a1", "a2", "a3"} {
		if _, ok := r2.s.Read(k); !ok {
			t.Fatalf("row %s lost across purge+crash", k)
		}
	}
}

// TestCheckpointExcludesUnappliedGTIDs: the checkpoint's GTID set matches
// its row state, not the log tail.
func TestCheckpointExcludesUnappliedGTIDs(t *testing.T) {
	s, f := newPrimary(t)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := s.Set(ctx, fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Two appended-but-unapplied transactions past the engine cursor.
	for i := 6; i <= 7; i++ {
		if _, err := f.ProposeTransaction(
			storage.EncodeChanges([]storage.RowChange{{Key: "late", After: []byte("x")}}),
			gtid.GTID{Source: s.opts.ServerUUID, ID: s.log.NextGTID(s.opts.ServerUUID)},
		); err != nil {
			t.Fatal(err)
		}
	}

	data, anchor, gtids, err := s.Checkpoint([]byte("member-config"))
	if err != nil {
		t.Fatal(err)
	}
	if anchor != (opid.OpID{Term: 1, Index: 5}) {
		t.Fatalf("anchor = %v, want {1 5}", anchor)
	}
	if want := "uuid-srv-1:1-5"; gtids != want {
		t.Fatalf("checkpoint gtids = %q, want %q", gtids, want)
	}
	cp, err := storage.DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Rows) != 5 {
		t.Fatalf("checkpoint rows = %d, want 5", len(cp.Rows))
	}
	if string(cp.Config) != "member-config" {
		t.Fatalf("checkpoint config = %q", cp.Config)
	}
}

// TestInstallCheckpointReplacesState: a replica installing a checkpoint
// drops its own state, adopts the anchor, and resumes applying from it.
func TestInstallCheckpointReplacesState(t *testing.T) {
	src, _ := newPrimary(t)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := src.Set(ctx, fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	data, anchor, gtids, err := src.Checkpoint(nil)
	if err != nil {
		t.Fatal(err)
	}

	r := newReplica(t)
	op := r.feed(t, []storage.RowChange{{Key: "stale", After: []byte("x")}})
	r.f.release(op.Index)
	waitApplied(t, r.s, op.Index)

	// Wrong anchor is rejected before anything is touched.
	if err := r.s.InstallCheckpoint(data, opid.OpID{Term: 9, Index: 99}, gtids); err == nil {
		t.Fatal("install with mismatched anchor succeeded")
	}
	if _, ok := r.s.Read("stale"); !ok {
		t.Fatal("failed install clobbered state")
	}

	if err := r.s.InstallCheckpoint(data, anchor, gtids); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		v, ok := r.s.Read(fmt.Sprintf("k%d", i))
		if !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%d = %q %v after install", i, v, ok)
		}
	}
	if _, ok := r.s.Read("stale"); ok {
		t.Fatal("pre-install row survived the swap")
	}
	if got := r.s.Log().LastOpID(); got != anchor {
		t.Fatalf("log tail = %v, want anchor %v", got, anchor)
	}
	if got := r.s.Log().Anchor(); got != anchor {
		t.Fatalf("log anchor = %v, want %v", got, anchor)
	}
	if got := r.s.GTIDExecuted().String(); got != gtids {
		t.Fatalf("executed gtids = %q, want %q", got, gtids)
	}
	st := r.s.ApplyStatus()
	if !st.Running {
		t.Fatal("applier not restarted after install")
	}
	if st.Position != anchor.Index {
		t.Fatalf("applier position = %d, want %d", st.Position, anchor.Index)
	}

	// Replication resumes at anchor+1: feed and apply a post-anchor entry.
	r.next = anchor.Index + 1
	r.f.mu.Lock()
	r.f.next = r.next
	r.f.commit = anchor.Index
	r.f.mu.Unlock()
	op = r.feed(t, []storage.RowChange{{Key: "after", After: []byte("y")}})
	r.f.release(op.Index)
	waitApplied(t, r.s, op.Index)
	if v, ok := r.s.Read("after"); !ok || string(v) != "y" {
		t.Fatalf("post-install apply: after = %q %v", v, ok)
	}
}
