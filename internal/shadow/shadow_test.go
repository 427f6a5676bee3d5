package shadow

import (
	"context"
	"testing"
	"time"

	"myraft/internal/cluster"
	"myraft/internal/quorum"
	"myraft/internal/raft"
	"myraft/internal/transport"
)

func testCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(cluster.Options{
		Name: "rs-shadow",
		Dir:  t.TempDir(),
		Raft: raft.Config{
			HeartbeatInterval: 10 * time.Millisecond,
			Strategy:          quorum.SingleRegionDynamic{},
		},
		NetConfig: transport.Config{
			IntraRegion: 200 * time.Microsecond,
			CrossRegion: 2 * time.Millisecond,
		},
	}, cluster.PaperTopology(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.Bootstrap(ctx, "mysql-0"); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFailureInjectionRounds(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	c := testCluster(t)
	tester := New(c, Config{Rounds: 3, Clients: 4})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	report, err := tester.RunFailureInjection(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if report.Rounds != 3 {
		t.Fatalf("rounds = %d", report.Rounds)
	}
	if report.Downtime.Count() != 3 {
		t.Fatalf("downtime samples = %d", report.Downtime.Count())
	}
	if report.Writes == 0 {
		t.Fatal("workload produced no writes across failovers")
	}
	if report.ChecksumFailures != 0 {
		t.Fatalf("checksum failures = %d", report.ChecksumFailures)
	}
	t.Logf("failure injection: %d writes, downtime %v", report.Writes, report.Downtime)
}

func TestFunctionalRounds(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	c := testCluster(t)
	tester := New(c, Config{Rounds: 3, Clients: 4})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	report, err := tester.RunFunctional(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if report.Rounds != 3 {
		t.Fatalf("rounds = %d", report.Rounds)
	}
	if report.ChecksumFailures != 0 {
		t.Fatalf("checksum failures = %d", report.ChecksumFailures)
	}
	// Graceful transfers are far faster than failovers: sub-second even
	// in the worst round.
	if report.Downtime.Max() > 5*time.Second {
		t.Fatalf("graceful transfer took %v", report.Downtime.Max())
	}
	t.Logf("functional: %d writes, transfer downtime %v", report.Writes, report.Downtime)
}

// TestFailureInjectionSoak hammers the crash/failover/restart cycle to
// hunt for state divergence (the class of bug §5.1's shadow testing was
// built to catch). It runs 12 sessions of 3 rounds each; any checksum
// mismatch or applier stall fails with full ring state.
func TestFailureInjectionSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	for iter := 0; iter < 12; iter++ {
		c := testCluster(t)
		tester := New(c, Config{Rounds: 3, Clients: 4, RoundPause: 100 * time.Millisecond, SettleTimeout: 10 * time.Second})
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		_, err := tester.RunFailureInjection(ctx)
		cancel()
		if err != nil {
			for _, m := range c.Members() {
				if m.Node() == nil {
					continue
				}
				st := m.Node().Status()
				t.Logf("%s: role=%v term=%d commit=%d last=%v", m.Spec.ID, st.Role, st.Term, st.CommitIndex, st.LastOpID)
				if m.Server() != nil {
					t.Logf("  applier applied=%d err=%v readonly=%v engine=%v",
						m.Server().ApplyStatus().Position, m.Server().ApplyStatus().LastError,
						m.Server().IsReadOnly(), m.Server().Engine().LastCommitted())
				}
			}
			c.Close()
			t.Fatalf("soak iteration %d: %v", iter, err)
		}
		c.Close()
	}
}
