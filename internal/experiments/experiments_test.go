package experiments

import (
	"context"
	"testing"
	"time"
)

// fastParams runs experiments at 50x time compression with a small
// topology so the suite stays quick; the full-scale runs live in the
// bench harness.
func fastParams() Params {
	return Params{
		Scale:           50,
		Trials:          3,
		Duration:        500 * time.Millisecond,
		Clients:         4,
		FollowerRegions: 1,
	}
}

func TestFig5aProductionShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	if raceEnabled {
		t.Skip("timing-sensitive shape test; race detector distorts latency")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	p := fastParams()
	p.Duration = time.Second
	res, err := Fig5aProduction(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.MyRaft.Latency.Count() == 0 || res.Prior.Latency.Count() == 0 {
		t.Fatalf("empty results: myraft=%d prior=%d", res.MyRaft.Latency.Count(), res.Prior.Latency.Count())
	}
	// The paper's headline: commit latencies are within a few percent.
	delta := res.LatencyDelta()
	if delta > 50 || delta < -50 {
		t.Fatalf("latency delta %.1f%% way off the paper's ~1%%", delta)
	}
	t.Logf("fig5a: %s", res)
	t.Logf("\n%s", LatencyHistogramRows(res, 10))
}

func TestFig5cSysbenchShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	if raceEnabled {
		t.Skip("timing-sensitive shape test; race detector distorts latency")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	res, err := Fig5cSysbench(ctx, fastParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.MyRaft.Latency.Count() == 0 || res.Prior.Latency.Count() == 0 {
		t.Fatal("empty results")
	}
	t.Logf("fig5c: %s", res)
}

func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	if raceEnabled {
		t.Skip("timing-sensitive shape test; race detector distorts latency")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 600*time.Second)
	defer cancel()
	// Scale 10, not 50: at extreme compression the fixed costs (fsyncs,
	// scheduling) swamp the sub-second Raft promotion row and the ratio
	// washes out. The bench harness uses the same scale for Table 2.
	p := fastParams()
	p.Scale = 10
	res, err := Table2(ctx, p)
	if err != nil {
		t.Fatalf("%v (rows so far: %v)", err, res.Rows)
	}
	t.Logf("\n%s", res)
	failover, promotion := res.Ratios()
	t.Logf("ratios: failover %.1fx, promotion %.1fx (paper: 24x, 4x)", failover, promotion)
	// Shape assertions: Raft failover must be at least 5x faster than
	// semi-sync failover, and promotions faster than failovers.
	if failover < 5 {
		t.Fatalf("failover improvement only %.1fx", failover)
	}
	if promotion < 1.2 {
		t.Fatalf("promotion improvement only %.1fx", promotion)
	}
}

func TestProxyBandwidthShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	if raceEnabled {
		t.Skip("timing-sensitive shape test; race detector distorts latency")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
	defer cancel()
	p := fastParams()
	p.FollowerRegions = 2
	res, err := ProxyBandwidth(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("proxy: %s", res)
	if res.Savings() < 20 {
		t.Fatalf("proxy savings only %.1f%%", res.Savings())
	}
}

func TestQuorumModesShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	if raceEnabled {
		t.Skip("timing-sensitive shape test; race detector distorts latency")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
	defer cancel()
	// Scale 1: the quorum-mode contrast IS the cross-region RTT, so the
	// WAN must run at its real 30ms for the gap to stand above noise.
	p := fastParams()
	p.Scale = 1
	p.FollowerRegions = 2
	res, err := QuorumModes(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	byMode := map[string]time.Duration{}
	for _, r := range res {
		byMode[r.Mode] = r.Latency.Mean()
		t.Logf("%-24s %s", r.Mode, r.Latency)
	}
	// FlexiRaft's whole point: in-region commits beat cross-region
	// majorities.
	if byMode["single-region-dynamic"] >= byMode["majority"] {
		t.Fatalf("single-region-dynamic (%v) not faster than majority (%v)",
			byMode["single-region-dynamic"], byMode["majority"])
	}
}

func TestMockElectionAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	if raceEnabled {
		t.Skip("timing-sensitive shape test; race detector distorts latency")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Second)
	defer cancel()
	res, err := MockElectionAblation(ctx, fastParams())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("mock ablation: %s", res)
	if !res.WithMockRefused {
		t.Fatal("mock election did not refuse the lagging-region transfer")
	}
	if res.WithMockDowntime >= res.WithoutMockDowntime {
		t.Fatalf("mock election did not reduce downtime: with=%v without=%v",
			res.WithMockDowntime, res.WithoutMockDowntime)
	}
}

func TestRolloutShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	if raceEnabled {
		t.Skip("timing-sensitive shape test; race detector distorts latency")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
	defer cancel()
	res, err := Rollout(ctx, fastParams())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("rollout: %s", res)
	if !res.DataPreserved {
		t.Fatal("migration lost data")
	}
	if res.WritesBefore == 0 || res.WritesAfter == 0 {
		t.Fatal("no traffic on one side of the migration")
	}
	// "a few seconds" of paper-scale unavailability.
	if paper := res.Params.unscaled(res.Window); paper > 30*time.Second {
		t.Fatalf("window too large: %v paper units", paper)
	}
}
