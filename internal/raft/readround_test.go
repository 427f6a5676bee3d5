package raft

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"myraft/internal/quorum"
	"myraft/internal/transport"
	"myraft/internal/wire"
)

// readRoundConfirmedByAcks is the ack-set predicate advanceReadRounds
// used to evaluate per round, kept as the oracle for the watermark form:
// round seq is confirmed when this node plus every peer that echoed seq
// or later satisfies the data-commit quorum.
func readRoundConfirmedByAcks(n *Node, seq uint64) bool {
	acks := map[wire.NodeID]bool{n.cfg.ID: true}
	for id, ps := range n.peers {
		if ps.ackSeq >= seq {
			acks[id] = true
		}
	}
	return n.strategy().DataCommitSatisfied(n.members, n.cfg.Region, acks)
}

// regionMajority is a strategy outside the built-in four (like a quorum
// fixer override): a majority of the leader region's voters plus any one
// voter elsewhere. CommittedIndex must fall back to asking it.
type regionMajority struct{ quorum.SingleRegionDynamic }

func (regionMajority) Name() string { return "region-majority-plus-one" }

func (r regionMajority) DataCommitSatisfied(cfg wire.Config, leaderRegion wire.Region, acks map[wire.NodeID]bool) bool {
	for _, m := range cfg.Voters() {
		if m.Region != leaderRegion && acks[m.ID] {
			return r.SingleRegionDynamic.DataCommitSatisfied(cfg, leaderRegion, acks)
		}
	}
	return false
}

// bareLeader builds an unstarted node playing leader of members; the
// tests drive its event-loop methods directly.
func bareLeader(t *testing.T, s quorum.Strategy, members wire.Config) (*Node, func()) {
	t.Helper()
	net := transport.New(transport.Config{}, nil)
	cfg := defaultNodeCfg("mysql-0", "region-0")
	cfg.Strategy = s
	n, err := NewNode(cfg, &memLog{}, nil, net.Register("mysql-0", "region-0"), nil)
	if err != nil {
		t.Fatal(err)
	}
	n.setMembers(members)
	n.role = RoleLeader
	return n, net.Close
}

// randomRing returns a membership of 2–9 members over 1–4 regions with
// mysql-0 a voter in region-0, some learners among the rest.
func randomRing(rng *rand.Rand) wire.Config {
	cfg := wire.Config{Members: []wire.Member{{ID: "mysql-0", Region: "region-0", Voter: true}}}
	regions := 1 + rng.Intn(4)
	for i := 1; i < 2+rng.Intn(8); i++ {
		cfg.Members = append(cfg.Members, wire.Member{
			ID:     wire.NodeID(fmt.Sprintf("m-%d", i)),
			Region: wire.Region(fmt.Sprintf("region-%d", rng.Intn(regions))),
			Voter:  rng.Intn(5) != 0,
		})
	}
	return cfg
}

// TestReadRoundWatermarkMatchesAckSetOracle: over random rings, echo
// vectors and open rounds, for the four built-in strategies and a foreign
// one, advanceReadRounds confirms exactly the newest round the per-round
// ack-set predicate confirms, and leaves exactly the newer rounds open.
func TestReadRoundWatermarkMatchesAckSetOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, s := range []quorum.Strategy{
		quorum.Majority{}, quorum.SingleRegionDynamic{}, quorum.StaticAnyRegion{}, quorum.Grid{}, regionMajority{},
	} {
		n, closeNet := bareLeader(t, s, paperConfig(1))
		for trial := 0; trial < 400; trial++ {
			n.setMembers(randomRing(rng))
			n.peers = make(map[wire.NodeID]*peerState)
			n.hbSeq = 1 + uint64(rng.Intn(12))
			for _, m := range n.members.Members[1:] {
				n.peers[m.ID] = &peerState{ackSeq: uint64(rng.Intn(int(n.hbSeq) + 1))}
			}
			n.hbRounds = n.hbRounds[:0]
			for seq := uint64(1); seq <= n.hbSeq; seq++ {
				if rng.Intn(3) != 0 { // some rounds already settled or trimmed
					n.hbRounds = append(n.hbRounds, hbRound{seq: seq, at: time.Unix(int64(seq), 0)})
				}
			}
			open := append([]hbRound(nil), n.hbRounds...)
			want := uint64(0)
			for _, r := range open {
				if readRoundConfirmedByAcks(n, r.seq) {
					want = r.seq
				}
			}
			n.confirmedSeq = 0
			n.lease.reset()
			n.advanceReadRounds()
			if n.confirmedSeq != want {
				t.Fatalf("%s trial %d: confirmed round %d, oracle %d (members %v, acks %v)",
					s.Name(), trial, n.confirmedSeq, want, n.members.Members, n.ackVector())
			}
			for _, r := range n.hbRounds {
				if r.seq <= want {
					t.Fatalf("%s trial %d: round %d left open after %d confirmed", s.Name(), trial, r.seq, want)
				}
			}
			if kept := len(n.hbRounds); want != 0 && kept != countAbove(open, want) {
				t.Fatalf("%s trial %d: %d rounds kept, want %d", s.Name(), trial, kept, countAbove(open, want))
			}
			if want != 0 && !n.lease.held {
				t.Fatalf("%s trial %d: confirmed round did not renew the lease", s.Name(), trial)
			}
		}
		closeNet()
	}
}

func countAbove(rounds []hbRound, seq uint64) int {
	k := 0
	for _, r := range rounds {
		if r.seq > seq {
			k++
		}
	}
	return k
}

// TestAdvanceReadRoundsAllocatesNothing pins the per-ack read-round
// confirmation at zero allocations on a ten-member paper-shaped ring
// (three regions of one MySQL and two logtailers, plus a learner), under
// every built-in strategy.
func TestAdvanceReadRoundsAllocatesNothing(t *testing.T) {
	members := paperConfig(3)
	members.Members = append(members.Members, wire.Member{ID: "learner-0", Region: "region-1"})
	for _, s := range []quorum.Strategy{
		quorum.Majority{}, quorum.SingleRegionDynamic{}, quorum.StaticAnyRegion{}, quorum.Grid{},
	} {
		n, closeNet := bareLeader(t, s, members)
		n.hbSeq = 20
		for i, m := range members.Members[1:] {
			n.peers[m.ID] = &peerState{ackSeq: uint64(10 + i)}
		}
		rounds := make([]hbRound, 0, 20)
		for seq := uint64(1); seq <= 20; seq++ {
			rounds = append(rounds, hbRound{seq: seq})
		}
		n.hbRounds = make([]hbRound, 0, len(rounds))
		if got := testing.AllocsPerRun(200, func() {
			n.hbRounds = append(n.hbRounds[:0], rounds...)
			n.advanceReadRounds()
		}); got != 0 {
			t.Errorf("%s: advanceReadRounds allocates %v objects per call", s.Name(), got)
		}
		if n.confirmedSeq == 0 {
			t.Errorf("%s: no round confirmed by acks %v", s.Name(), n.ackVector())
		}
		closeNet()
	}
}
