package mysql

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"myraft/internal/binlog"
	"myraft/internal/opid"
	"myraft/internal/storage"
)

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// newPipelinedPrimary builds a primary with an explicit commit pipeline
// depth and a manual-commit fake replicator, so tests control exactly
// when consensus resolves.
func newPipelinedPrimary(t *testing.T, depth int) (*Server, *fakeReplicator, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := NewServer(Options{ID: "srv-1", Dir: dir, StartAsPrimary: true, CommitPipelineDepth: depth})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	f := newFakeReplicator(s)
	f.manual = true
	s.AttachReplicator(f)
	return s, f, dir
}

type writeResult struct {
	op  opid.OpID
	err error
}

// startWrite issues a single-row write on its own goroutine.
func startWrite(s *Server, key string) <-chan writeResult {
	res := make(chan writeResult, 1)
	go func() {
		op, err := s.Set(context.Background(), key, []byte("v"))
		res <- writeResult{op, err}
	}()
	return res
}

// proposeGroups issues one write per key, each only after the previous
// one was proposed, so every write is its own commit group; it returns
// the result channels in order.
func proposeGroups(t *testing.T, s *Server, f *fakeReplicator, keys ...string) []<-chan writeResult {
	t.Helper()
	var out []<-chan writeResult
	for _, k := range keys {
		next := f.lastIndex() + 1
		out = append(out, startWrite(s, k))
		waitUntil(t, "group "+k+" proposed", func() bool { return f.lastIndex() == next })
	}
	return out
}

// logGTIDs returns the GTID sequence numbers of the log entries in
// (after, through], which must all carry this server's UUID.
func logGTIDs(t *testing.T, s *Server, after, through uint64) []int64 {
	t.Helper()
	var ids []int64
	for i := after + 1; i <= through; i++ {
		e, err := s.Log().Entry(i)
		if err != nil {
			t.Fatal(err)
		}
		if !e.HasGTID || e.GTID.Source != s.opts.ServerUUID {
			t.Fatalf("entry %d carries GTID %v", i, e.GTID)
		}
		ids = append(ids, e.GTID.ID)
	}
	return ids
}

// wantContiguous asserts ids == first, first+1, ...
func wantContiguous(t *testing.T, ids []int64, first int64) {
	t.Helper()
	for i, id := range ids {
		if id != first+int64(i) {
			t.Fatalf("GTID sequence %v is not contiguous from %d", ids, first)
		}
	}
}

// TestDemotionMidPipelinePreservesAckedWritesAndGapFreeEngine drives the
// race the pipelined flusher/committer handoff opens up: leadership is
// lost with four groups proposed and none of them locally durable yet.
// Group 1 is consensus-committed (a quorum has it; the paper's promise to
// the client holds) and its fsync lands; groups 2–4 are neither committed
// nor durable, and the new leader's stream truncates them away. The acked
// write must land in the engine, the rest must roll back, and the engine
// WAL's commit sequence must stay gap-free — the applier restart cursor
// (§3.3 step 5) depends on it.
func TestDemotionMidPipelinePreservesAckedWritesAndGapFreeEngine(t *testing.T) {
	s, f, dir := newPipelinedPrimary(t, 4)
	f.manualDurable = true
	base := f.lastIndex()

	// Four groups in flight at once: impossible at depth 1, and impossible
	// at any depth while the flusher waited for each group's fsync.
	res := proposeGroups(t, s, f, "a", "b", "c", "d")
	if got := s.Engine().LastCommitted().Index; got != 0 {
		t.Fatalf("engine committed %d before consensus", got)
	}

	// Consensus commits group 1 and its fsync completes; then leadership is
	// lost: the commit waits fail, and the undurable tail is truncated.
	f.release(base + 1)
	f.releaseDurable(base + 1)
	f.fail(errors.New("leadership lost"))
	f.failDurable(errors.New("entry truncated before becoming durable"))

	a := <-res[0]
	if a.err != nil {
		t.Fatalf("acked write lost: %v", a.err)
	}
	for i, r := range res[1:] {
		if w := <-r; w.err == nil {
			t.Fatalf("uncommitted write %d acked across demotion", i+2)
		}
	}

	// The MySQL side of demotion rolls back what is left prepared.
	if err := s.DemoteToReplica(); err != nil {
		t.Fatal(err)
	}
	if n := s.Engine().PreparedCount(); n != 0 {
		t.Fatalf("prepared txns leaked: %d", n)
	}
	if got := s.Engine().LastCommitted(); got != a.op {
		t.Fatalf("engine cursor = %v, want acked %v", got, a.op)
	}
	if v, ok := s.Read("a"); !ok || string(v) != "v" {
		t.Fatalf("acked write missing: %q %v", v, ok)
	}
	for _, k := range []string{"b", "c", "d"} {
		if _, ok := s.Read(k); ok {
			t.Fatalf("aborted write %s visible", k)
		}
	}

	// The engine WAL's on-disk commit order is strictly increasing with
	// no index gap — the invariant the restart cursor depends on.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ops, err := storage.WALCommitOps(filepath.Join(dir, "engine"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(ops); i++ {
		if ops[i].Index != ops[i-1].Index+1 {
			t.Fatalf("engine commit sequence has a gap: %v", ops)
		}
	}
	if len(ops) == 0 || ops[len(ops)-1] != a.op {
		t.Fatalf("engine commit sequence %v does not end at acked %v", ops, a.op)
	}
}

// TestPipelineProposesNextGroupWhilePreviousSyncs pins the overlap the
// flush stage exists for: with a slot free, group 2 is proposed while
// group 1's local fsync is still outstanding.
func TestPipelineProposesNextGroupWhilePreviousSyncs(t *testing.T) {
	s, f, _ := newPipelinedPrimary(t, 2)
	f.manualDurable = true
	base := f.lastIndex()

	res := proposeGroups(t, s, f, "a", "b")
	if f.CommitIndex() != base || s.Engine().LastCommitted().Index != 0 {
		t.Fatal("a group resolved with neither fsync nor quorum released")
	}

	f.releaseDurable(base + 2)
	f.release(base + 2)
	for _, r := range res {
		if w := <-r; w.err != nil {
			t.Fatal(w.err)
		}
	}
}

// TestPipelineEngineCommitWaitsForLocalDurability: the in-region followers
// may form the quorum before the leader's own fsync lands. The binlog is
// the durability source and the engine cursor is the applier's restart
// point, so neither the engine commit nor the client ack may run ahead of
// local durability.
func TestPipelineEngineCommitWaitsForLocalDurability(t *testing.T) {
	s, f, _ := newPipelinedPrimary(t, 4)
	f.manualDurable = true
	base := f.lastIndex()

	res := proposeGroups(t, s, f, "a")
	// Quorum first. Whatever order the committer takes its two waits in, it
	// now has nothing left to wait for but the fsync.
	f.release(base + 1)
	waitUntil(t, "committer parked on durability", func() bool { return f.parkedOnDurable(base + 1) })
	if got := s.Engine().LastCommitted().Index; got != 0 {
		t.Fatalf("engine committed %d ahead of local durability", got)
	}
	select {
	case w := <-res[0]:
		t.Fatalf("client acked ahead of local durability: %+v", w)
	default:
	}

	f.releaseDurable(base + 1)
	if w := <-res[0]; w.err != nil {
		t.Fatal(w.err)
	}
	if got := s.Engine().LastCommitted().Index; got != base+1 {
		t.Fatalf("engine cursor = %d, want %d", got, base+1)
	}
}

// TestGTIDCursorAcrossOverlappingGroupsAndPartialPropose: the binlog
// append of a proposed group may trail its proposal, so GTIDs come from
// the flusher's cursor rather than from the log's executed set. Across
// four overlapping undurable groups, a five-transaction group of which
// only two were appended, and the group after it, every GTID is handed
// out exactly once and the sequence has no hole: the three aborted
// transactions' numbers are reused.
func TestGTIDCursorAcrossOverlappingGroupsAndPartialPropose(t *testing.T) {
	s, f, _ := newPipelinedPrimary(t, 8)
	f.manualDurable = true
	base := f.lastIndex()

	res := proposeGroups(t, s, f, "a", "b", "c", "d")
	wantContiguous(t, logGTIDs(t, s, base, base+4), 1)

	// Hold the flusher inside the next propose so that five more writes
	// pile up behind it and drain as one group.
	open := f.gatePropose()
	res = append(res, startWrite(s, "e"))
	waitUntil(t, "flusher parked in propose", func() bool {
		f.mu.Lock()
		defer f.mu.Unlock()
		return f.proposeParked
	})
	var five []<-chan writeResult
	for _, k := range []string{"f", "g", "h", "i", "j"} {
		five = append(five, startWrite(s, k))
	}
	waitUntil(t, "five writes queued", func() bool { return s.PipelineStatus().QueueLen == 5 })
	f.mu.Lock()
	f.partialAfter, f.partialErr = 2, errors.New("log writer failed mid-batch")
	f.mu.Unlock()
	open()
	waitUntil(t, "prefix of the five appended", func() bool { return f.lastIndex() == base+7 })

	// The group after the partial one continues right behind the prefix.
	res = append(res, proposeGroups(t, s, f, "k")...)
	wantContiguous(t, logGTIDs(t, s, base, base+8), 1)
	if got, want := s.GTIDExecuted().String(), "uuid-srv-1:1-8"; got != want {
		t.Fatalf("executed set = %q, want %q", got, want)
	}

	f.releaseDurable(base + 8)
	f.release(base + 8)
	for i, r := range res {
		if w := <-r; w.err != nil {
			t.Fatalf("write %d: %v", i, w.err)
		}
	}
	acked, aborted := 0, 0
	for _, r := range five {
		if w := <-r; w.err == nil {
			acked++
		} else {
			aborted++
		}
	}
	if acked != 2 || aborted != 3 {
		t.Fatalf("partial group: %d acked, %d aborted, want 2 and 3", acked, aborted)
	}
	if got := s.Engine().LastCommitted().Index; got != base+8 {
		t.Fatalf("engine cursor = %d, want %d", got, base+8)
	}
}

// TestGTIDCursorReseedsAcrossRoleChange: a group is still in flight, never
// durable, when the server is demoted, its tail truncated, and the server
// promoted again under a new Replicator. The next group must take its
// GTIDs from the binlog's executed set — which no longer holds the
// truncated transaction's — not from the cursor the old role left behind.
func TestGTIDCursorReseedsAcrossRoleChange(t *testing.T) {
	s, f, _ := newPipelinedPrimary(t, 4)
	f.manualDurable = true
	base := f.lastIndex()

	res := proposeGroups(t, s, f, "a", "b") // GTIDs 1 and 2
	f.release(base + 1)
	f.releaseDurable(base + 1)
	if w := <-res[0]; w.err != nil {
		t.Fatal(w.err)
	}
	waitUntil(t, "group b parked on durability", func() bool { return f.parkedOnDurable(base + 2) })

	// Demotion; the new leader's stream truncates b away; promotion under a
	// fresh replicator — all while group b is still parked in the committer.
	if err := s.DemoteToReplica(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Log().TruncateAfter(base + 1); err != nil {
		t.Fatal(err)
	}
	s.applier.stop()
	if err := s.Log().SetPersona(binlog.PersonaBinlog); err != nil {
		t.Fatal(err)
	}
	f2 := newFakeReplicator(s)
	s.AttachReplicator(f2)
	s.EnableWrites()

	c := proposeGroups(t, s, f2, "c")[0]
	wantContiguous(t, logGTIDs(t, s, base, base+2), 1)

	// The committer is FIFO: c resolves only behind b.
	f.failDurable(errors.New("entry truncated before becoming durable"))
	if w := <-res[1]; w.err == nil {
		t.Fatal("truncated write acked")
	}
	if w := <-c; w.err != nil {
		t.Fatal(w.err)
	}
}

// TestPipelineDepthOneKeepsFlushSerial pins the depth-1 contract: the
// flusher must not propose group N+1 until group N has fully
// engine-committed (the pre-pipelining behavior).
func TestPipelineDepthOneKeepsFlushSerial(t *testing.T) {
	s, f, _ := newPipelinedPrimary(t, 1)
	base := f.lastIndex()
	ctx := context.Background()

	aRes := make(chan writeResult, 1)
	go func() {
		op, err := s.Set(ctx, "a", []byte("1"))
		aRes <- writeResult{op, err}
	}()
	waitUntil(t, "group 1 proposed", func() bool { return f.lastIndex() == base+1 })

	bRes := make(chan writeResult, 1)
	go func() {
		op, err := s.Set(ctx, "b", []byte("2"))
		bRes <- writeResult{op, err}
	}()
	// With a single in-flight slot, b's flush must wait for a's engine
	// commit.
	time.Sleep(50 * time.Millisecond)
	if got := f.lastIndex(); got != base+1 {
		t.Fatalf("depth 1 overlapped: proposed through %d with group 1 unresolved", got)
	}

	f.release(base + 1)
	waitUntil(t, "group 2 proposed after group 1 resolved", func() bool { return f.lastIndex() == base+2 })
	f.release(base + 2)
	if a := <-aRes; a.err != nil {
		t.Fatal(a.err)
	}
	if b := <-bRes; b.err != nil {
		t.Fatal(b.err)
	}
}

// TestPipelineStatusCountsGroupsAndStages sanity-checks the observable
// pipeline stats surfaced through adminapi /status and /metrics.
func TestPipelineStatusCountsGroupsAndStages(t *testing.T) {
	s, _ := newPrimary(t)
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		if _, err := s.Set(ctx, "k", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// A client is acked before its group's engine sync decision runs, and
	// every group but the last may defer its sync to a successor.
	waitUntil(t, "pipeline idle", func() bool { return s.PipelineStatus().InFlight == 0 })
	st := s.PipelineStatus()
	if st.Depth != defaultCommitPipelineDepth {
		t.Fatalf("depth = %d", st.Depth)
	}
	if st.TxnsCommitted != 8 {
		t.Fatalf("committed = %d", st.TxnsCommitted)
	}
	if st.GroupsProposed == 0 || st.GroupsProposed > 8 {
		t.Fatalf("groups = %d", st.GroupsProposed)
	}
	if st.GroupSizeMax < 1 {
		t.Fatalf("group size max = %d", st.GroupSizeMax)
	}
	if st.FlushBusyNs <= 0 || st.QuorumBusyNs < 0 || st.EngineBusyNs <= 0 {
		t.Fatalf("stage occupancy = %d/%d/%d", st.FlushBusyNs, st.QuorumBusyNs, st.EngineBusyNs)
	}
	if st.EngineSyncs == 0 {
		t.Fatalf("engine never synced: %+v", st)
	}
}
