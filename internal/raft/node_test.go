package raft

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"myraft/internal/gtid"
	"myraft/internal/quorum"
	"myraft/internal/wire"
)

func TestSingleNodeElectsAndCommits(t *testing.T) {
	c := newCluster(t, flatConfig(1), nil)
	n := c.elect("n0")
	op, err := n.Propose([]byte("x"), gtid.GTID{Source: "s", ID: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := n.WaitCommitted(ctx, op.Index); err != nil {
		t.Fatal(err)
	}
}

func TestElectionTimeoutElectsLeader(t *testing.T) {
	c := newCluster(t, flatConfig(3), nil)
	leader := c.anyLeader()
	st := leader.Status()
	if st.Term == 0 {
		t.Fatal("leader at term 0")
	}
	// Exactly one leader.
	time.Sleep(5 * testHeartbeat)
	leaders := 0
	for _, n := range c.nodes {
		if n.Status().Role == RoleLeader {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("leaders = %d", leaders)
	}
}

func TestReplicationReachesAllMembers(t *testing.T) {
	c := newCluster(t, flatConfig(3), nil)
	n := c.elect("n0")
	for i := 1; i <= 10; i++ {
		op, err := n.Propose([]byte("payload"), gtid.GTID{Source: "s", ID: int64(i)}, true)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if err := n.WaitCommitted(ctx, op.Index); err != nil {
			t.Fatal(err)
		}
		cancel()
	}
	// All members converge to 11 entries (no-op + 10 proposals).
	c.waitCondition("replication to all", func() bool {
		for _, l := range c.logs {
			if l.len() != 11 {
				return false
			}
		}
		return true
	})
	// Followers learn the commit marker via piggyback.
	c.waitCondition("commit propagation", func() bool {
		for _, n := range c.nodes {
			if n.CommitIndex() != 11 {
				return false
			}
		}
		return true
	})
}

func TestProposeOnFollowerRejected(t *testing.T) {
	c := newCluster(t, flatConfig(3), nil)
	c.elect("n0")
	_, err := c.nodes["n1"].Propose([]byte("x"), gtid.GTID{}, false)
	if !errors.Is(err, ErrNotLeader) {
		t.Fatalf("err = %v, want ErrNotLeader", err)
	}
}

func TestFailoverAfterLeaderCrash(t *testing.T) {
	c := newCluster(t, flatConfig(3), nil)
	old := c.elect("n0")
	op, err := old.Propose([]byte("pre-crash"), gtid.GTID{Source: "s", ID: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := old.WaitCommitted(ctx, op.Index); err != nil {
		t.Fatal(err)
	}
	c.net.SetNodeDown("n0", true)
	// A new leader emerges among the survivors within a few timeouts.
	c.waitCondition("new leader", func() bool {
		for id, n := range c.nodes {
			if id != "n0" && n.Status().Role == RoleLeader {
				return true
			}
		}
		return false
	})
	// The committed entry survives (leader completeness).
	var newLeader *Node
	for id, n := range c.nodes {
		if id != "n0" && n.Status().Role == RoleLeader {
			newLeader = n
		}
	}
	st := newLeader.Status()
	if st.LastOpID.Index < op.Index {
		t.Fatalf("new leader log %v misses committed entry %v", st.LastOpID, op)
	}
}

func TestDeadLeaderDemotesOnRejoin(t *testing.T) {
	c := newCluster(t, flatConfig(3), nil)
	old := c.elect("n0")
	c.net.SetNodeDown("n0", true)
	c.waitCondition("new leader", func() bool {
		for id, n := range c.nodes {
			if id != "n0" && n.Status().Role == RoleLeader {
				return true
			}
		}
		return false
	})
	c.net.SetNodeDown("n0", false)
	// The erstwhile leader is fenced by the term increment and demotes
	// once it hears from the new leader (§2.2).
	c.waitCondition("old leader demotes", func() bool {
		return old.Status().Role == RoleFollower && c.cbs["n0"].demoteCount() > 0
	})
}

func TestNoAutoStepDownUnderPartition(t *testing.T) {
	// kuduraft does not implement automatic step down (§4.1): a leader
	// cut off from all peers stays leader (consistency over availability)
	// but cannot commit.
	c := newCluster(t, flatConfig(3), nil)
	n := c.elect("n0")
	c.net.Partition("n0", "n1")
	c.net.Partition("n0", "n2")
	op, err := n.Propose([]byte("stranded"), gtid.GTID{Source: "s", ID: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*testHeartbeat)
	defer cancel()
	if err := n.WaitCommitted(ctx, op.Index); err == nil {
		t.Fatal("partitioned leader committed an entry")
	}
	if got := n.Status().Role; got != RoleLeader {
		t.Fatalf("partitioned leader stepped down to %v", got)
	}
}

func TestPreVotePreventsDisruptionByRejoiner(t *testing.T) {
	c := newCluster(t, flatConfig(3), nil)
	n := c.elect("n0")
	termBefore := n.Status().Term
	// Isolate n2; its election timers fire but pre-vote keeps failing, so
	// it must not bump its term.
	c.net.Partition("n2", "n0")
	c.net.Partition("n2", "n1")
	time.Sleep(20 * testHeartbeat)
	c.net.HealAll()
	time.Sleep(5 * testHeartbeat)
	if got := n.Status().Term; got != termBefore {
		t.Fatalf("rejoining node disrupted the term: %d -> %d", termBefore, got)
	}
	if n.Status().Role != RoleLeader {
		t.Fatal("leader deposed by rejoiner")
	}
}

func TestPromotionCallbackCarriesNoOpIndex(t *testing.T) {
	c := newCluster(t, flatConfig(3), nil)
	c.elect("n0")
	cb := c.cbs["n0"]
	c.waitCondition("promotion callback", func() bool { return cb.promoteCount() > 0 })
	cb.mu.Lock()
	info := cb.promotes[0]
	cb.mu.Unlock()
	if info.NoOpIndex == 0 || info.Term == 0 {
		t.Fatalf("promotion info = %+v", info)
	}
	// The no-op entry reaches the leader's log at that index (the async
	// writer appends it off the event loop, so wait rather than peek).
	c.waitCondition("no-op entry in log", func() bool {
		e, err := c.logs["n0"].Entry(info.NoOpIndex)
		return err == nil && e.Kind == entryNoOpKind
	})
}

func TestGracefulTransferLeadership(t *testing.T) {
	c := newCluster(t, flatConfig(3), nil)
	n := c.elect("n0")
	for i := 1; i <= 5; i++ {
		n.Propose([]byte("x"), gtid.GTID{Source: "s", ID: int64(i)}, true)
	}
	if err := n.TransferLeadership("n1"); err != nil {
		t.Fatal(err)
	}
	c.waitLeader("n1")
	c.waitCondition("old leader demotes", func() bool {
		return c.nodes["n0"].Status().Role == RoleFollower
	})
	// New leader's term is higher and its log is complete.
	st := c.nodes["n1"].Status()
	if st.LastOpID.Index < 6 {
		t.Fatalf("new leader missing entries: %v", st.LastOpID)
	}
}

func TestTransferToUnknownMemberFails(t *testing.T) {
	c := newCluster(t, flatConfig(3), nil)
	n := c.elect("n0")
	if err := n.TransferLeadership("ghost"); !errors.Is(err, ErrUnknownMember) {
		t.Fatalf("err = %v", err)
	}
}

func TestTransferOnFollowerFails(t *testing.T) {
	c := newCluster(t, flatConfig(3), nil)
	c.elect("n0")
	if err := c.nodes["n1"].TransferLeadership("n2"); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("err = %v", err)
	}
}

func TestMockElectionBlocksTransferToLaggingRegion(t *testing.T) {
	// §4.3: with FlexiRaft, a transfer target whose in-region logtailers
	// lag the leader's cursor must fail the mock election, keeping the
	// current leader serving (no availability loss).
	cfg := paperConfig(2)
	mk := func(id wire.NodeID, region wire.Region) Config {
		c := defaultNodeCfg(id, region)
		c.Strategy = quorum.SingleRegionDynamic{}
		c.MockLagAllowance = 4
		return c
	}
	c := newCluster(t, cfg, mk)
	n := c.elect("mysql-0")
	// Cut region-1's logtailers off so they lag.
	c.net.SetNodeDown("lt-1-0", true)
	c.net.SetNodeDown("lt-1-1", true)
	for i := 1; i <= 20; i++ {
		op, err := n.Propose([]byte("x"), gtid.GTID{Source: "s", ID: int64(i)}, true)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if err := n.WaitCommitted(ctx, op.Index); err != nil {
			t.Fatal(err)
		}
		cancel()
	}
	err := n.TransferLeadership("mysql-1")
	if !errors.Is(err, ErrTransferFailed) {
		t.Fatalf("transfer to lagging region: err = %v, want ErrTransferFailed", err)
	}
	// Leader unaffected; writes still flow.
	if n.Status().Role != RoleLeader {
		t.Fatal("leader lost leadership after failed mock election")
	}
	if _, err := n.Propose([]byte("post"), gtid.GTID{Source: "s", ID: 21}, true); err != nil {
		t.Fatalf("writes blocked after failed mock election: %v", err)
	}
}

func TestTransferSucceedsWithHealthyRegion(t *testing.T) {
	cfg := paperConfig(2)
	mk := func(id wire.NodeID, region wire.Region) Config {
		c := defaultNodeCfg(id, region)
		c.Strategy = quorum.SingleRegionDynamic{}
		return c
	}
	c := newCluster(t, cfg, mk)
	n := c.elect("mysql-0")
	for i := 1; i <= 5; i++ {
		op, _ := n.Propose([]byte("x"), gtid.GTID{Source: "s", ID: int64(i)}, true)
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if err := n.WaitCommitted(ctx, op.Index); err != nil {
			t.Fatal(err)
		}
		cancel()
	}
	if err := n.TransferLeadership("mysql-1"); err != nil {
		t.Fatal(err)
	}
	c.waitLeader("mysql-1")
}

func TestQuiescedProposalsRejectedDuringTransfer(t *testing.T) {
	c := newCluster(t, flatConfig(3), nil)
	n := c.elect("n0")
	// Slow all links from leader so the transfer stays in catchup long
	// enough to observe quiescing.
	c.net.SetLinkLatency("n0", "n1", 50*time.Millisecond)
	c.net.SetLinkLatency("n0", "n2", 50*time.Millisecond)
	n.Propose([]byte("x"), gtid.GTID{Source: "s", ID: 1}, true)
	done := make(chan error, 1)
	go func() { done <- n.TransferLeadership("n1") }()
	// Wait for the transfer to reach its quiesced stage, then proposals
	// must bounce.
	c.waitCondition("quiesce", func() bool {
		_, err := n.Propose([]byte("y"), gtid.GTID{Source: "s", ID: 2}, true)
		return errors.Is(err, ErrQuiesced) || errors.Is(err, ErrNotLeader)
	})
	<-done
}

func TestMembershipAddAndRemove(t *testing.T) {
	c := newCluster(t, flatConfig(3), nil)
	n := c.elect("n0")

	// Add a learner.
	op, err := n.AddMember(wire.Member{ID: "n3", Region: "r1", Voter: false})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := n.WaitCommitted(ctx, op.Index); err != nil {
		t.Fatal(err)
	}
	// Boot the new member; it catches up from the leader.
	c.startNode("n3", "r1")
	c.waitCondition("n3 catches up", func() bool {
		return c.logs["n3"].len() >= int(op.Index)
	})
	st := n.Status()
	if _, ok := st.Config.Find("n3"); !ok {
		t.Fatalf("n3 missing from config: %+v", st.Config)
	}

	// Remove it again.
	op2, err := n.RemoveMember("n3")
	if err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel2()
	if err := n.WaitCommitted(ctx2, op2.Index); err != nil {
		t.Fatal(err)
	}
	if _, ok := n.Status().Config.Find("n3"); ok {
		t.Fatal("n3 still in config after removal")
	}
}

func TestOnlyOneMembershipChangeAtATime(t *testing.T) {
	c := newCluster(t, flatConfig(3), nil)
	n := c.elect("n0")
	// Stall replication so the first change stays uncommitted.
	c.net.SetNodeDown("n1", true)
	c.net.SetNodeDown("n2", true)
	if _, err := n.AddMember(wire.Member{ID: "n3", Region: "r1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddMember(wire.Member{ID: "n4", Region: "r1"}); !errors.Is(err, ErrConfChangeInFlight) {
		t.Fatalf("second change err = %v, want ErrConfChangeInFlight", err)
	}
}

func TestMembershipChangeOnFollowerRejected(t *testing.T) {
	c := newCluster(t, flatConfig(3), nil)
	c.elect("n0")
	if _, err := c.nodes["n1"].AddMember(wire.Member{ID: "x"}); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("err = %v", err)
	}
	if _, err := c.nodes["n1"].RemoveMember("n0"); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("err = %v", err)
	}
}

func TestRemoveUnknownMember(t *testing.T) {
	c := newCluster(t, flatConfig(3), nil)
	n := c.elect("n0")
	if _, err := n.RemoveMember("ghost"); !errors.Is(err, ErrUnknownMember) {
		t.Fatalf("err = %v", err)
	}
}

func TestDivergentFollowerTruncates(t *testing.T) {
	c := newCluster(t, flatConfig(3), nil)
	n0 := c.elect("n0")
	op, _ := n0.Propose([]byte("committed"), gtid.GTID{Source: "s", ID: 1}, true)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := n0.WaitCommitted(ctx, op.Index); err != nil {
		t.Fatal(err)
	}
	// Cut the leader off and let it append entries that never replicate
	// (§A.2 case 2).
	c.net.Partition("n0", "n1")
	c.net.Partition("n0", "n2")
	n0.Propose([]byte("doomed-1"), gtid.GTID{Source: "s", ID: 2}, true)
	doomed, _ := n0.Propose([]byte("doomed-2"), gtid.GTID{Source: "s", ID: 3}, true)
	// The async log writer appends off the event loop; wait for the
	// doomed tail to reach the store before measuring it.
	c.waitCondition("doomed entries appended", func() bool {
		return c.logs["n0"].LastOpID().Index >= doomed.Index
	})
	doomedLen := c.logs["n0"].len()

	// A new leader emerges and commits fresh entries.
	c.nodes["n1"].CampaignNow()
	c.waitLeader("n1")
	n1 := c.nodes["n1"]
	op2, err := n1.Propose([]byte("fresh"), gtid.GTID{Source: "s2", ID: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel2()
	if err := n1.WaitCommitted(ctx2, op2.Index); err != nil {
		t.Fatal(err)
	}

	// Heal: the erstwhile leader truncates its doomed tail and converges.
	c.net.HealAll()
	c.waitCondition("old leader truncates and converges", func() bool {
		l := c.logs["n0"]
		if l.len() != c.logs["n1"].len() {
			return false
		}
		last, err := l.Entry(uint64(l.len()))
		return err == nil && string(last.Payload) == string(mustEntry(t, c.logs["n1"], uint64(c.logs["n1"].len())).Payload)
	})
	if c.logs["n0"].len() >= doomedLen+2 {
		t.Fatal("doomed entries not truncated")
	}
}

func mustEntry(t *testing.T, l *memLog, idx uint64) *wire.LogEntry {
	t.Helper()
	e, err := l.Entry(idx)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestFlexiRaftCommitsWithInRegionQuorumOnly(t *testing.T) {
	// §4.1: with single-region-dynamic quorums, the leader commits with
	// its in-region logtailers even when every other region is down.
	cfg := paperConfig(3)
	mk := func(id wire.NodeID, region wire.Region) Config {
		c := defaultNodeCfg(id, region)
		c.Strategy = quorum.SingleRegionDynamic{}
		return c
	}
	c := newCluster(t, cfg, mk)
	n := c.elect("mysql-0")
	// Kill everything outside region-0.
	for r := 1; r < 3; r++ {
		c.net.SetNodeDown(wire.NodeID(fmt.Sprintf("mysql-%d", r)), true)
		c.net.SetNodeDown(wire.NodeID(fmt.Sprintf("lt-%d-0", r)), true)
		c.net.SetNodeDown(wire.NodeID(fmt.Sprintf("lt-%d-1", r)), true)
	}
	op, err := n.Propose([]byte("in-region"), gtid.GTID{Source: "s", ID: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := n.WaitCommitted(ctx, op.Index); err != nil {
		t.Fatalf("in-region quorum did not commit: %v", err)
	}
}

func TestMajorityStallsWhenRemoteRegionsDown(t *testing.T) {
	// Contrast with the above: vanilla majority cannot commit when 6 of 9
	// voters are down.
	cfg := paperConfig(3)
	c := newCluster(t, cfg, nil)
	n := c.elect("mysql-0")
	for r := 1; r < 3; r++ {
		c.net.SetNodeDown(wire.NodeID(fmt.Sprintf("mysql-%d", r)), true)
		c.net.SetNodeDown(wire.NodeID(fmt.Sprintf("lt-%d-0", r)), true)
		c.net.SetNodeDown(wire.NodeID(fmt.Sprintf("lt-%d-1", r)), true)
	}
	op, err := n.Propose([]byte("x"), gtid.GTID{Source: "s", ID: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*testHeartbeat)
	defer cancel()
	if err := n.WaitCommitted(ctx, op.Index); err == nil {
		t.Fatal("majority committed without a majority")
	}
}

func TestWitnessElectedTransfersAway(t *testing.T) {
	// §2.2/§4.1: a logtailer can win an election (longest log) but then
	// hands leadership to a real MySQL via TransferLeadership (the
	// logtailer package picks the targets). Here a witness leads while
	// its first-choice MySQL voter is down too: the mock stage gives up
	// on it within one election timeout, and the handoff to the other
	// voter completes within two.
	const hb = 30 * time.Millisecond
	c := newCluster(t, paperConfig(3), func(id wire.NodeID, region wire.Region) Config {
		cfg := defaultNodeCfg(id, region)
		cfg.HeartbeatInterval = hb
		return cfg
	})
	witness := c.elect("lt-0-0")
	electionTimeout := witness.maxElectionTimeout()
	c.net.SetNodeDown("mysql-1", true)

	start := time.Now()
	if err := witness.TransferLeadership("mysql-1"); !errors.Is(err, ErrTransferFailed) {
		t.Fatalf("transfer to a down voter: err = %v", err)
	}
	// One election timeout of silence, plus up to a beat for the tick
	// that notices it and one more for scheduling.
	if took := time.Since(start); took > electionTimeout+2*hb {
		t.Fatalf("mock stage held a dead target for %v, want about one election timeout (%v)", took, electionTimeout)
	}
	if err := witness.TransferLeadership("mysql-2"); err != nil {
		t.Fatal(err)
	}
	c.waitLeader("mysql-2")
	if took := time.Since(start); took > 2*electionTimeout {
		t.Fatalf("handoff took %v, want within two election timeouts (%v)", took, 2*electionTimeout)
	}
}

func TestForceQuorumAllowsSingleNodeElection(t *testing.T) {
	// Quorum Fixer scenario (§5.3): region quorum shattered; override the
	// quorum so a chosen survivor can win.
	cfg := paperConfig(2)
	mk := func(id wire.NodeID, region wire.Region) Config {
		c := defaultNodeCfg(id, region)
		c.Strategy = quorum.SingleRegionDynamic{}
		return c
	}
	c := newCluster(t, cfg, mk)
	c.elect("mysql-0")
	// Shatter region-0's quorum: both logtailers die, then the leader.
	c.net.SetNodeDown("lt-0-0", true)
	c.net.SetNodeDown("lt-0-1", true)
	c.net.SetNodeDown("mysql-0", true)
	// mysql-1 cannot win normally (needs region-0 majority).
	c.nodes["mysql-1"].CampaignNow()
	time.Sleep(10 * testHeartbeat)
	if c.nodes["mysql-1"].Status().Role == RoleLeader {
		t.Fatal("election won without region-0 majority; override not needed")
	}
	// Operator override: elect with plain in-region majority.
	c.nodes["mysql-1"].ForceQuorum(forcedQuorum{})
	c.nodes["mysql-1"].CampaignNow()
	c.waitLeader("mysql-1")
	// Restore normal quorum rules.
	c.nodes["mysql-1"].ForceQuorum(nil)
	if c.nodes["mysql-1"].Status().Role != RoleLeader {
		t.Fatal("leadership lost after restoring quorum")
	}
}

// forcedQuorum accepts any single vote — the maximally relaxed override.
type forcedQuorum struct{}

func (forcedQuorum) Name() string { return "forced" }
func (forcedQuorum) DataCommitSatisfied(_ wire.Config, _ wire.Region, acks map[wire.NodeID]bool) bool {
	return len(acks) >= 1
}
func (forcedQuorum) ElectionSatisfied(_ wire.Config, _, _ wire.Region, votes map[wire.NodeID]bool) bool {
	return len(votes) >= 1
}

func TestStatusExposesMatchAndWatermarks(t *testing.T) {
	cfg := paperConfig(2)
	c := newCluster(t, cfg, nil)
	n := c.elect("mysql-0")
	op, _ := n.Propose([]byte("x"), gtid.GTID{Source: "s", ID: 1}, true)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	n.WaitCommitted(ctx, op.Index)
	c.waitCondition("watermarks", func() bool {
		st := n.Status()
		return st.RegionWatermarks["region-0"] >= op.Index &&
			st.RegionWatermarks["region-1"] >= op.Index
	})
	st := n.Status()
	if len(st.Match) != 6 { // 5 peers + self
		t.Fatalf("match size = %d", len(st.Match))
	}
}

func TestStoppedNodeAPIErrors(t *testing.T) {
	c := newCluster(t, flatConfig(1), nil)
	n := c.elect("n0")
	n.Stop()
	if _, err := n.Propose(nil, gtid.GTID{}, false); !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v", err)
	}
	if err := n.WaitCommitted(context.Background(), 1); !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v", err)
	}
}

func TestLeadershipLostAbortsCommitWaiters(t *testing.T) {
	c := newCluster(t, flatConfig(3), nil)
	n := c.elect("n0")
	c.net.Partition("n0", "n1")
	c.net.Partition("n0", "n2")
	op, err := n.Propose([]byte("stuck"), gtid.GTID{Source: "s", ID: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- n.WaitCommitted(context.Background(), op.Index) }()
	// Elect a new leader on the other side, then heal; the old leader
	// demotes and must abort the waiter.
	c.nodes["n1"].CampaignNow()
	c.waitLeader("n1")
	c.net.HealAll()
	select {
	case err := <-waitErr:
		if !errors.Is(err, ErrLeadershipLost) {
			t.Fatalf("waiter err = %v, want ErrLeadershipLost", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("commit waiter never aborted")
	}
}

func TestProposeRotateReplicatesRotateEntry(t *testing.T) {
	c := newCluster(t, flatConfig(3), nil)
	n := c.elect("n0")
	op, err := n.ProposeRotate()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := n.WaitCommitted(ctx, op.Index); err != nil {
		t.Fatal(err)
	}
	c.waitCondition("rotate replicated", func() bool {
		for _, l := range c.logs {
			if l.len() < int(op.Index) {
				return false
			}
			if e, err := l.Entry(op.Index); err != nil || e.Kind != entryRotateKind {
				return false
			}
		}
		return true
	})
}

func TestAutoStepDownExtension(t *testing.T) {
	// With the extension enabled, a leader cut off from its quorum
	// relinquishes leadership instead of holding it forever (contrast
	// with TestNoAutoStepDownUnderPartition, the paper's default).
	mk := func(id wire.NodeID, region wire.Region) Config {
		c := defaultNodeCfg(id, region)
		c.AutoStepDownAfter = 5 * testHeartbeat
		return c
	}
	c := newCluster(t, flatConfig(3), mk)
	n := c.elect("n0")
	c.net.Partition("n0", "n1")
	c.net.Partition("n0", "n2")
	c.waitCondition("auto step-down", func() bool {
		return n.Status().Role != RoleLeader
	})
	// The stranded ex-leader's waiters were failed; clients see errors
	// quickly rather than hanging.
	if _, err := n.Propose([]byte("x"), gtid.GTID{Source: "s", ID: 1}, true); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("propose after step-down: %v", err)
	}
	// The healthy side can elect (real election via campaign).
	c.nodes["n1"].CampaignNow()
	c.waitLeader("n1")
}
