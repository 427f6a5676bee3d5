package raft

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"myraft/internal/clock"
	"myraft/internal/transport"
	"myraft/internal/wire"
)

// zeroSource draws only zeros, so resetElectionDeadline adds no jitter and
// a node's deadline is ElectionTimeoutTicks beats plus its bias.
type zeroSource struct{}

func (zeroSource) Int63() int64 { return 0 }
func (zeroSource) Seed(int64)   {}

// voteSpy records, on the fake clock, when its node asked for votes.
type voteSpy struct {
	*transport.Endpoint
	clk   *clock.Fake
	epoch time.Time
	mu    sync.Mutex
	asked []time.Duration
}

func (s *voteSpy) Send(to wire.NodeID, msg wire.Message) error {
	if _, ok := msg.(*wire.RequestVoteReq); ok {
		s.mu.Lock()
		s.asked = append(s.asked, s.clk.Since(s.epoch))
		s.mu.Unlock()
	}
	return s.Endpoint.Send(to, msg)
}

func (s *voteSpy) requests() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]time.Duration(nil), s.asked...)
}

// A follower campaigns at its election deadline, not at the next loop
// tick (every HeartbeatInterval/2), and a second follower whose deadline
// is 1 ms later does not campaign beside it: the first one's vote request
// reaches it before its own deadline and resets it.
func TestElectionFiresAtItsDeadline(t *testing.T) {
	fake := clock.NewFake()
	epoch := fake.Now()
	net := transport.New(transport.Config{IntraRegion: 200 * time.Microsecond}, nil)
	t.Cleanup(net.Close)
	// Ticks fall every 5 ms; both deadlines sit between the 45 and 50 ms
	// ticks, and n2's never arrives.
	bias := map[wire.NodeID]time.Duration{
		"n0": 17500 * time.Microsecond, // deadline 47.5 ms
		"n1": 18500 * time.Microsecond, // deadline 48.5 ms
		"n2": time.Hour,
	}
	cfg := flatConfig(3)
	nodes := make(map[wire.NodeID]*Node)
	spies := make(map[wire.NodeID]*voteSpy)
	for _, m := range cfg.Members {
		nc := defaultNodeCfg(m.ID, m.Region)
		nc.ElectionTimeoutBias = bias[m.ID]
		spies[m.ID] = &voteSpy{Endpoint: net.Register(m.ID, m.Region), clk: fake, epoch: epoch}
		n, err := NewNode(nc, &memLog{}, nil, spies[m.ID], fake)
		if err != nil {
			t.Fatal(err)
		}
		n.rng = rand.New(zeroSource{})
		if err := n.Start(cfg); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Stop)
		nodes[m.ID] = n
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	// step moves the clock by 0.5 ms and lets every loop handle what fell
	// due, so each loop reads the time its timer fired at. A loop picks
	// at random among ready channels, so after 30 Status round trips a
	// pending timer fire is left unhandled with odds of 2^-30.
	step := func() {
		fake.Advance(500 * time.Microsecond)
		for _, n := range nodes {
			for i := 0; i < 30; i++ {
				n.Status()
			}
		}
	}

	for fake.Since(epoch) < 47500*time.Microsecond {
		step()
	}
	waitFor("n0 to campaign at its deadline", func() bool { return len(spies["n0"].requests()) > 0 })
	if at := spies["n0"].requests()[0]; at != 47500*time.Microsecond {
		t.Fatalf("n0 asked for votes at %v, want its deadline 47.5ms", at)
	}
	waitFor("n0 to lead", func() bool { return nodes["n0"].Status().Role == RoleLeader })
	waitFor("n1 to see term 1", func() bool { return nodes["n1"].Status().Term == 1 })

	// Walk the clock past n1's deadline and the next two ticks.
	for fake.Since(epoch) < 60*time.Millisecond {
		step()
	}
	waitFor("n1 to follow n0", func() bool { return nodes["n1"].Status().Leader == "n0" })
	if st := nodes["n1"].Status(); st.Term != 1 || len(spies["n1"].requests()) != 0 {
		t.Fatalf("n1 at term %d asked for votes at %v, want term 1 and none", st.Term, spies["n1"].requests())
	}
}
