package raft

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"myraft/internal/gtid"
	"myraft/internal/opid"
	"myraft/internal/transport"
	"myraft/internal/wire"
)

// gatedLog wraps a memLog with a controllable Sync: while the gate is
// closed, Sync blocks, which simulates a storage device stuck mid-fsync.
// It also counts Sync calls so tests can verify fsync coalescing.
type gatedLog struct {
	memLog
	syncs    atomic.Int64
	started  chan struct{} // receives one token per Sync entered
	gate     chan struct{} // Sync waits here until the gate is opened
	released atomic.Bool
}

func newGatedLog() *gatedLog {
	return &gatedLog{
		started: make(chan struct{}, 1024),
		gate:    make(chan struct{}),
	}
}

func (l *gatedLog) Sync() error {
	l.syncs.Add(1)
	select {
	case l.started <- struct{}{}:
	default:
	}
	if !l.released.Load() {
		<-l.gate
	}
	return nil
}

// open releases every current and future Sync. Idempotent.
func (l *gatedLog) open() {
	if l.released.CompareAndSwap(false, true) {
		close(l.gate)
	}
}

// startGatedNode builds a single-voter node over a gatedLog, elects it,
// and guarantees the gate is opened at cleanup so Stop can drain.
func startGatedNode(t *testing.T) (*Node, *gatedLog) {
	t.Helper()
	cfg := wire.Config{Members: []wire.Member{{ID: "n0", Region: "r1", Voter: true}}}
	net := transport.New(transport.Config{IntraRegion: 200 * time.Microsecond}, nil)
	log := newGatedLog()
	n, err := NewNode(defaultNodeCfg("n0", "r1"), log, &recordingCallbacks{}, net.Register("n0", "r1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		log.open()
		n.Stop()
		net.Close()
	})
	n.CampaignNow()
	deadline := time.Now().Add(10 * time.Second)
	for n.Status().Role != RoleLeader {
		if time.Now().After(deadline) {
			t.Fatal("never became leader")
		}
		time.Sleep(time.Millisecond)
	}
	return n, log
}

// TestLogWriterCoalescesFsyncs drives the writer directly: entries that
// arrive while a sync is in flight must share the next sync rather than
// getting one each.
func TestLogWriterCoalescesFsyncs(t *testing.T) {
	log := newGatedLog()
	lw := newLogWriter(log, Config{}, newDurMetrics())
	lw.init(0)
	go lw.run()
	defer func() {
		log.open()
		lw.stop()
	}()

	entry := func(i uint64) *wire.LogEntry {
		return &wire.LogEntry{OpID: opid.OpID{Term: 1, Index: i}, Payload: []byte("p")}
	}
	if err := lw.enqueue(entry(1), nil); err != nil {
		t.Fatal(err)
	}
	<-log.started // writer is now blocked inside Sync for entry 1
	for i := uint64(2); i <= 10; i++ {
		if err := lw.enqueue(entry(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	log.open()
	if err := lw.drainAppends(); err != nil {
		t.Fatal(err)
	}
	st := lw.stats()
	if st.DurableIndex != 10 || st.AppendedIndex != 10 {
		t.Fatalf("cursors = %d/%d, want 10/10", st.DurableIndex, st.AppendedIndex)
	}
	if st.UnsyncedBytes != 0 {
		t.Fatalf("unsynced bytes = %d after drain", st.UnsyncedBytes)
	}
	// Entry 1 got its own (gated) sync; entries 2-10 must share one.
	if got := log.syncs.Load(); got != 2 {
		t.Fatalf("syncs = %d, want 2 (one gated + one group)", got)
	}
	if st.FsyncBatch.Max != 9 {
		t.Fatalf("max fsync batch = %d, want 9", st.FsyncBatch.Max)
	}
}

// TestLogWriterBackpressure verifies MaxUnsyncedBytes: once the bound is
// hit, enqueue blocks until a sync completes, and the stall is recorded
// as loop-blocked time.
func TestLogWriterBackpressure(t *testing.T) {
	log := newGatedLog()
	lw := newLogWriter(log, Config{MaxUnsyncedBytes: 1}, newDurMetrics())
	lw.init(0)
	go lw.run()
	defer func() {
		log.open()
		lw.stop()
	}()

	if err := lw.enqueue(&wire.LogEntry{OpID: opid.OpID{Term: 1, Index: 1}}, nil); err != nil {
		t.Fatal(err)
	}
	<-log.started // entry 1's sync is gated; unsynced debt stays above the bound

	second := make(chan error, 1)
	go func() {
		second <- lw.enqueue(&wire.LogEntry{OpID: opid.OpID{Term: 1, Index: 2}}, nil)
	}()
	select {
	case err := <-second:
		t.Fatalf("enqueue past the bound returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	log.open()
	if err := <-second; err != nil {
		t.Fatal(err)
	}
	if err := lw.drainAppends(); err != nil {
		t.Fatal(err)
	}
	if st := lw.stats(); st.LoopBlocked == 0 {
		t.Fatal("backpressure stall not recorded as loop-blocked time")
	}
}

// TestLogWriterStickyError verifies that an append failure poisons the
// writer: later enqueues and drains report the original error.
func TestLogWriterStickyError(t *testing.T) {
	log := &failLog{err: fmt.Errorf("disk on fire")}
	lw := newLogWriter(log, Config{}, newDurMetrics())
	lw.init(0)
	go lw.run()
	defer lw.stop()

	if err := lw.enqueue(&wire.LogEntry{OpID: opid.OpID{Term: 1, Index: 1}}, nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := lw.state(); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("writer never surfaced the append error")
		}
		time.Sleep(time.Millisecond)
	}
	if err := lw.enqueue(&wire.LogEntry{OpID: opid.OpID{Term: 1, Index: 2}}, nil); err == nil {
		t.Fatal("enqueue after failure succeeded")
	}
	if err := lw.drainAppends(); err == nil {
		t.Fatal("drain after failure reported success")
	}
}

// failLog rejects every append.
type failLog struct {
	memLog
	err error
}

func (l *failLog) Append(*wire.LogEntry) error { return l.err }

// TestCommitGatedOnLocalDurability proves the single-voter case: even
// with no peers to wait for, an entry must not commit before the local
// group fsync covers it — the leader's own vote is its durable cursor.
func TestCommitGatedOnLocalDurability(t *testing.T) {
	n, log := startGatedNode(t)

	op, err := n.Propose([]byte("x"), gtid.GTID{Source: "s", ID: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	// The proposal (and the leadership no-op before it) are queued behind
	// the gated sync: nothing may commit.
	time.Sleep(50 * time.Millisecond)
	if ci := n.CommitIndex(); ci != 0 {
		t.Fatalf("commit advanced to %d with fsync gated", ci)
	}
	if di := n.DurableIndex(); di != 0 {
		t.Fatalf("durable index %d with fsync gated", di)
	}

	log.open()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := n.WaitCommitted(ctx, op.Index); err != nil {
		t.Fatal(err)
	}
	if di := n.DurableIndex(); di < op.Index {
		t.Fatalf("durable index %d below committed %d", di, op.Index)
	}
}

// TestWaitDurableFollowsFsync verifies WaitDurable's three outcomes:
// completion when the fsync lands, context cancellation while gated, and
// immediate success for already-durable indexes.
func TestWaitDurableFollowsFsync(t *testing.T) {
	n, log := startGatedNode(t)

	op, err := n.Propose([]byte("x"), gtid.GTID{Source: "s", ID: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	err = n.WaitDurable(ctx, op.Index)
	cancel()
	if err == nil {
		t.Fatal("WaitDurable returned with fsync gated")
	}

	log.open()
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	if err := n.WaitDurable(ctx2, op.Index); err != nil {
		t.Fatal(err)
	}
	// Now durable: a fresh wait completes immediately.
	ctx3, cancel3 := context.WithTimeout(context.Background(), time.Second)
	defer cancel3()
	if err := n.WaitDurable(ctx3, op.Index); err != nil {
		t.Fatal(err)
	}
}

// TestEventLoopLiveDuringSlowSync is the liveness property the off-loop
// writer exists for: with a sync stuck indefinitely, the event loop must
// keep serving status queries and accepting proposals.
func TestEventLoopLiveDuringSlowSync(t *testing.T) {
	n, log := startGatedNode(t)

	if _, err := n.Propose([]byte("x"), gtid.GTID{Source: "s", ID: 1}, true); err != nil {
		t.Fatal(err)
	}
	<-log.started // a sync is now in flight and blocked

	type result struct {
		st  Status
		ops []opid.OpID
	}
	done := make(chan result, 1)
	go func() {
		var r result
		// Both of these ride the event loop; with the old synchronous
		// design the loop would be inside Sync and neither would return.
		r.st = n.Status()
		for i := int64(2); i <= 5; i++ {
			op, err := n.Propose([]byte("y"), gtid.GTID{Source: "s", ID: i}, true)
			if err != nil {
				return
			}
			r.ops = append(r.ops, op)
		}
		done <- r
	}()
	var r result
	select {
	case r = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("event loop blocked behind a slow fsync")
	}
	if r.st.Role != RoleLeader || len(r.ops) != 4 {
		t.Fatalf("loop served stale state during slow sync: %+v", r)
	}

	log.open()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := n.WaitCommitted(ctx, r.ops[len(r.ops)-1].Index); err != nil {
		t.Fatal(err)
	}
	// Everything proposed behind the gated sync must have shared fsyncs:
	// far fewer syncs than entries.
	if st := n.DurabilityStats(); st.Fsyncs >= 5 {
		t.Fatalf("fsyncs = %d for 5 appends; grouping broken", st.Fsyncs)
	}
}

// TestFollowerAcksOnlyDurable proves the two-voter case: the leader's
// commit needs the follower's vote, and that vote must wait for the
// follower's fsync — delivered by an unsolicited durability ack.
func TestFollowerAcksOnlyDurable(t *testing.T) {
	cfg := wire.Config{Members: []wire.Member{
		{ID: "n0", Region: "r1", Voter: true},
		{ID: "n1", Region: "r1", Voter: true},
	}}
	net := transport.New(transport.Config{IntraRegion: 200 * time.Microsecond}, nil)
	t.Cleanup(net.Close)

	followerLog := newGatedLog()
	logs := map[wire.NodeID]LogStore{"n0": &memLog{}, "n1": followerLog}
	nodes := map[wire.NodeID]*Node{}
	for _, m := range cfg.Members {
		n, err := NewNode(defaultNodeCfg(m.ID, m.Region), logs[m.ID], &recordingCallbacks{}, net.Register(m.ID, m.Region), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start(cfg); err != nil {
			t.Fatal(err)
		}
		nodes[m.ID] = n
	}
	t.Cleanup(func() {
		followerLog.open()
		for _, n := range nodes {
			n.Stop()
		}
	})

	leader := nodes["n0"]
	leader.CampaignNow()
	deadline := time.Now().Add(10 * time.Second)
	for leader.Status().Role != RoleLeader {
		if time.Now().After(deadline) {
			t.Fatal("n0 never became leader")
		}
		time.Sleep(time.Millisecond)
	}

	op, err := leader.Propose([]byte("x"), gtid.GTID{Source: "s", ID: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	// The leader fsyncs fine (memLog), but with two voters the quorum
	// needs n1 — whose fsync is gated, so its acks stay at zero.
	time.Sleep(100 * time.Millisecond)
	if ci := leader.CommitIndex(); ci >= op.Index {
		t.Fatalf("commit %d reached without the follower's fsync", ci)
	}

	followerLog.open()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := leader.WaitCommitted(ctx, op.Index); err != nil {
		t.Fatal(err)
	}
	if di := nodes["n1"].DurableIndex(); di < op.Index {
		t.Fatalf("follower durable index %d below committed %d", di, op.Index)
	}
}

// failingSyncLog is a memLog whose Sync fails once armed.
type failingSyncLog struct {
	memLog
	fail atomic.Bool
}

func (l *failingSyncLog) Sync() error {
	if l.fail.Load() {
		return fmt.Errorf("disk gone")
	}
	return nil
}

// TestWaitDurableRegisteredAfterTheFailure: the commit pipeline's
// committer may ask about a group several groups after proposing it. A
// wait registered after the writer's failure was already fanned out, or
// for an index past the tail (truncated away), must fail instead of
// parking forever.
func TestWaitDurableRegisteredAfterTheFailure(t *testing.T) {
	cfg := wire.Config{Members: []wire.Member{{ID: "n0", Region: "r1", Voter: true}}}
	net := transport.New(transport.Config{IntraRegion: 200 * time.Microsecond}, nil)
	log := &failingSyncLog{}
	n, err := NewNode(defaultNodeCfg("n0", "r1"), log, &recordingCallbacks{}, net.Register("n0", "r1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		n.Stop()
		net.Close()
	})
	n.CampaignNow()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Index 1 is the leadership no-op; once durable the node is a settled
	// leader.
	if err := n.WaitDurable(ctx, 1); err != nil {
		t.Fatal(err)
	}

	if err := n.WaitDurable(ctx, 99); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("wait past the tail = %v, want ErrNotDurable", err)
	}

	log.fail.Store(true)
	op, err := n.Propose([]byte("x"), gtid.GTID{Source: "s", ID: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	// The sticky error steps the leader down: by then the failure's own
	// waiter flush has run, with nobody registered.
	for n.Status().Role == RoleLeader {
		if ctx.Err() != nil {
			t.Fatal("leader never stepped down on the writer failure")
		}
		time.Sleep(time.Millisecond)
	}
	if err := n.WaitDurable(ctx, op.Index); err == nil || ctx.Err() != nil {
		t.Fatalf("wait after writer failure = %v (ctx %v), want the writer's error", err, ctx.Err())
	}
}

// waitDurableCommitAsync registers a WaitDurableCommit on n and returns
// its result channel once the wait is parked on the event loop.
func waitDurableCommitAsync(t *testing.T, n *Node, index uint64) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- n.WaitDurableCommit(context.Background(), index) }()
	// A post queued after the wait's runs after it registered.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var parked bool
		n.post(func() {
			for _, ws := range [][]commitWaiter{n.waiters, n.durableWaiters} {
				for _, w := range ws {
					parked = parked || w.index == index
				}
			}
		})
		if parked {
			return done
		}
		select {
		case err := <-done:
			t.Fatalf("WaitDurableCommit(%d) returned %v before parking", index, err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("WaitDurableCommit(%d) never parked", index)
		}
		time.Sleep(time.Millisecond)
	}
}

// expectPending fails if the wait already returned.
func expectPending(t *testing.T, done <-chan error, what string) {
	t.Helper()
	select {
	case err := <-done:
		t.Fatalf("WaitDurableCommit returned %v while %s", err, what)
	case <-time.After(20 * time.Millisecond):
	}
}

// expectResult waits for the wait's result and checks it.
func expectResult(t *testing.T, done <-chan error, want error) {
	t.Helper()
	select {
	case err := <-done:
		if !errors.Is(err, want) {
			t.Fatalf("WaitDurableCommit = %v, want %v", err, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("WaitDurableCommit never returned")
	}
}

// TestWaitDurableCommitDurableThenCommitted: the leader's own fsync lands
// while its followers' acks are lost (its heartbeats still reach them, so
// nobody campaigns); the wait resolves only once the quorum commits the
// entry too.
func TestWaitDurableCommitDurableThenCommitted(t *testing.T) {
	c := newCluster(t, flatConfig(3), nil)
	n := c.elect("n0")
	c.net.PartitionOneWay("n1", "n0")
	c.net.PartitionOneWay("n2", "n0")
	op, err := n.Propose([]byte("x"), gtid.GTID{Source: "s", ID: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	c.waitCondition("local durability", func() bool { return n.DurableIndex() >= op.Index })
	done := waitDurableCommitAsync(t, n, op.Index)
	expectPending(t, done, "durable but not committed")
	c.net.HealAll()
	expectResult(t, done, nil)
	// Past the tail (a truncated entry) it fails at once.
	if err := n.WaitDurableCommit(context.Background(), op.Index+100); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("wait past the tail = %v, want ErrNotDurable", err)
	}
}

// TestWaitDurableCommitCommittedThenDurable: the followers' acks commit the
// entry while the leader's own fsync is stuck; the wait resolves only
// once the fsync lands, whether it was registered before the commit or
// after it.
func TestWaitDurableCommitCommittedThenDurable(t *testing.T) {
	cfg := flatConfig(3)
	net := transport.New(transport.Config{IntraRegion: 200 * time.Microsecond}, nil)
	gated := newGatedLog()
	var leader *Node
	for i, m := range cfg.Members {
		var log LogStore = &memLog{}
		if i == 0 {
			log = gated
		}
		n, err := NewNode(defaultNodeCfg(m.ID, m.Region), log, &recordingCallbacks{}, net.Register(m.ID, m.Region), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Start(cfg); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Stop)
		if i == 0 {
			leader = n
		}
	}
	t.Cleanup(func() {
		gated.open()
		net.Close()
	})
	leader.CampaignNow()
	deadline := time.Now().Add(10 * time.Second)
	for leader.Status().Role != RoleLeader {
		if time.Now().After(deadline) {
			t.Fatal("never became leader")
		}
		time.Sleep(time.Millisecond)
	}
	// Hold the acks back until the first wait has parked uncommitted.
	net.PartitionOneWay("n1", "n0")
	net.PartitionOneWay("n2", "n0")
	op, err := leader.Propose([]byte("x"), gtid.GTID{Source: "s", ID: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	before := waitDurableCommitAsync(t, leader, op.Index)
	net.HealAll()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := leader.WaitCommitted(ctx, op.Index); err != nil {
		t.Fatal(err)
	}
	if di := leader.DurableIndex(); di >= op.Index {
		t.Fatalf("durable index %d with the leader's fsync gated", di)
	}
	after := waitDurableCommitAsync(t, leader, op.Index)
	expectPending(t, before, "committed but not durable")
	expectPending(t, after, "committed but not durable")
	gated.open()
	expectResult(t, before, nil)
	expectResult(t, after, nil)
}

// TestWaitDurableCommitFailsOnDemotion: an uncommitted wait fails with
// ErrLeadershipLost when the leader is deposed.
func TestWaitDurableCommitFailsOnDemotion(t *testing.T) {
	c := newCluster(t, flatConfig(3), nil)
	n := c.elect("n0")
	c.net.Partition("n0", "n1")
	c.net.Partition("n0", "n2")
	op, err := n.Propose([]byte("stuck"), gtid.GTID{Source: "s", ID: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	done := waitDurableCommitAsync(t, n, op.Index)
	// Either of the cut-off pair may win the new term.
	c.nodes["n1"].CampaignNow()
	c.waitCondition("a new leader", func() bool {
		return c.nodes["n1"].Status().Role == RoleLeader || c.nodes["n2"].Status().Role == RoleLeader
	})
	c.net.HealAll()
	expectResult(t, done, ErrLeadershipLost)
	// Registered after the demotion, it fails at once.
	if err := n.WaitDurableCommit(context.Background(), op.Index+1); !errors.Is(err, ErrLeadershipLost) {
		t.Fatalf("wait on a follower = %v, want ErrLeadershipLost", err)
	}
}

// TestWaitDurableCommitFailsOnStop: a parked wait fails with ErrStopped.
func TestWaitDurableCommitFailsOnStop(t *testing.T) {
	c := newCluster(t, flatConfig(3), nil)
	n := c.elect("n0")
	c.net.Partition("n0", "n1")
	c.net.Partition("n0", "n2")
	op, err := n.Propose([]byte("stuck"), gtid.GTID{Source: "s", ID: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	done := waitDurableCommitAsync(t, n, op.Index)
	n.Stop()
	expectResult(t, done, ErrStopped)
}
