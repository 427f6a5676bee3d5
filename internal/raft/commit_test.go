package raft

import (
	"testing"

	"myraft/internal/quorum"
	"myraft/internal/transport"
	"myraft/internal/wire"
)

// TestAdvanceLeaderCommitAllocatesNothing pins the per-ack commit
// recompute at zero allocations on a ten-member paper-shaped ring (three
// regions of one MySQL and two logtailers, plus a learner), under every
// built-in strategy. The node is never started: the test plays the event
// loop.
func TestAdvanceLeaderCommitAllocatesNothing(t *testing.T) {
	members := paperConfig(3)
	members.Members = append(members.Members, wire.Member{ID: "learner-0", Region: "region-1"})
	for _, s := range []quorum.Strategy{
		quorum.Majority{}, quorum.SingleRegionDynamic{}, quorum.StaticAnyRegion{}, quorum.Grid{},
	} {
		net := transport.New(transport.Config{}, nil)
		cfg := defaultNodeCfg("mysql-0", "region-0")
		cfg.Strategy = s
		n, err := NewNode(cfg, &memLog{}, nil, net.Register("mysql-0", "region-0"), nil)
		if err != nil {
			t.Fatal(err)
		}
		n.setMembers(members)
		n.role = RoleLeader
		n.selfMatch = 40
		for i, m := range members.Members[1:] {
			n.peers[m.ID] = &peerState{match: uint64(30 + i)}
		}
		// Park the marker where the recompute lands, so every call does the
		// whole computation and then finds nothing to advance.
		n.commitIndex = quorum.CommittedIndex(s, n.voters, n.cfg.Region, n.matchVector())
		if n.commitIndex == 0 {
			t.Fatalf("%s: nothing committed by %v", s.Name(), n.matchVector())
		}
		if got := testing.AllocsPerRun(200, n.advanceLeaderCommit); got != 0 {
			t.Errorf("%s: advanceLeaderCommit allocates %v objects per call", s.Name(), got)
		}
		net.Close()
	}
}
