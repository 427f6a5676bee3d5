package cluster

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"myraft/internal/quorum"
	"myraft/internal/raft"
	"myraft/internal/transport"
	"myraft/internal/wire"
)

// testOptions builds fast-timing options for integration tests.
func testOptions(t *testing.T, strategy quorum.Strategy) Options {
	t.Helper()
	return Options{
		Name: "rs-test",
		Dir:  t.TempDir(),
		Raft: raft.Config{
			HeartbeatInterval: 10 * time.Millisecond,
			Strategy:          strategy,
		},
		NetConfig: transport.Config{
			IntraRegion: 200 * time.Microsecond,
			CrossRegion: 2 * time.Millisecond,
		},
	}
}

// smallTopology: one region, one MySQL voter + 2 logtailers, plus one
// follower region.
func smallTopology() []MemberSpec { return PaperTopology(1, 0) }

func bootCluster(t *testing.T, opts Options, specs []MemberSpec) *Cluster {
	t.Helper()
	c, err := New(opts, specs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := c.Bootstrap(ctx, "mysql-0"); err != nil {
		t.Fatal(err)
	}
	return c
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestBootstrapAndWrite(t *testing.T) {
	c := bootCluster(t, testOptions(t, nil), smallTopology())
	client := c.NewClient(0)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, err := client.Write(ctx, "user:1", []byte("alice"))
	if err != nil {
		t.Fatal(err)
	}
	if res.OpID.IsZero() {
		t.Fatal("write returned zero OpID")
	}
	v, ok, err := client.Read(ctx, "user:1")
	if err != nil || !ok || string(v) != "alice" {
		t.Fatalf("read = %q %v %v", v, ok, err)
	}
}

func TestReplicasApplyAndConverge(t *testing.T) {
	c := bootCluster(t, testOptions(t, nil), smallTopology())
	client := c.NewClient(0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 20; i++ {
		if _, err := client.Write(ctx, fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// The follower MySQL's applier catches up and engine contents match.
	waitFor(t, "replica convergence", func() bool {
		sums := c.EngineChecksums()
		return len(sums) == 2 && sums["mysql-0"] == sums["mysql-1"]
	})
	// Replica rejects client writes.
	if _, err := c.Member("mysql-1").Server().Set(ctx, "x", []byte("y")); err == nil {
		t.Fatal("replica accepted a client write")
	}
}

func TestLogEqualityAcrossRing(t *testing.T) {
	c := bootCluster(t, testOptions(t, nil), smallTopology())
	client := c.NewClient(0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 15; i++ {
		if _, err := client.Write(ctx, fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "log equality", func() bool {
		sums, err := c.LogChecksums(1)
		if err != nil || len(sums) != 6 {
			return false
		}
		want := sums["mysql-0"]
		for _, s := range sums {
			if s != want {
				return false
			}
		}
		return true
	})
}

func TestGracefulPromotionMovesPrimary(t *testing.T) {
	c := bootCluster(t, testOptions(t, nil), smallTopology())
	client := c.NewClient(0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	client.Write(ctx, "before", []byte("1"))

	if err := c.TransferLeadership("mysql-1"); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForPrimary(ctx, "mysql-1"); err != nil {
		t.Fatal(err)
	}
	// The old primary is now a read-only replica.
	waitFor(t, "old primary demoted", func() bool {
		m := c.Member("mysql-0")
		return m.Server().IsReadOnly()
	})
	// Writes flow to the new primary; data written before survives.
	res, err := client.Write(ctx, "after", []byte("2"))
	if err != nil {
		t.Fatal(err)
	}
	if res.OpID.IsZero() {
		t.Fatal("no opid")
	}
	v, ok, _ := client.Read(ctx, "before")
	if !ok || string(v) != "1" {
		t.Fatalf("pre-transfer data lost: %q %v", v, ok)
	}
}

func TestFailoverAfterPrimaryCrash(t *testing.T) {
	c := bootCluster(t, testOptions(t, nil), smallTopology())
	client := c.NewClient(0)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for i := 0; i < 5; i++ {
		if _, err := client.Write(ctx, fmt.Sprintf("pre%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Crash("mysql-0"); err != nil {
		t.Fatal(err)
	}
	// A new primary is elected, promoted and published; client writes
	// resume. (The witness may win first and transfer away, §2.2.)
	m, err := c.AnyPrimary(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Spec.ID == "mysql-0" {
		t.Fatal("crashed primary still published")
	}
	if _, err := client.Write(ctx, "post-failover", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Committed pre-crash data survived the failover.
	v, ok, _ := client.Read(ctx, "pre4")
	if !ok || string(v) != "v" {
		t.Fatalf("committed data lost in failover: %q %v", v, ok)
	}
}

func TestCrashedPrimaryRejoinsAsReplicaAndConverges(t *testing.T) {
	c := bootCluster(t, testOptions(t, nil), smallTopology())
	client := c.NewClient(0)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	client.Write(ctx, "a", []byte("1"))
	c.Crash("mysql-0")
	if _, err := c.AnyPrimary(ctx); err != nil {
		t.Fatal(err)
	}
	client.Write(ctx, "b", []byte("2"))
	if err := c.Restart("mysql-0"); err != nil {
		t.Fatal(err)
	}
	// The rejoiner demotes to replica, reapplies via its applier and
	// converges (§A.2 case 3).
	waitFor(t, "rejoiner convergence", func() bool {
		m := c.Member("mysql-0")
		if m.Server() == nil || !m.Server().IsReadOnly() {
			return false
		}
		v, ok := m.Server().Read("b")
		return ok && string(v) == "2"
	})
	sums := c.EngineChecksums()
	waitFor(t, "checksum equality", func() bool {
		sums = c.EngineChecksums()
		first := uint32(0)
		started := false
		for _, s := range sums {
			if !started {
				first = s
				started = true
				continue
			}
			if s != first {
				return false
			}
		}
		return started
	})
}

func TestFlexiRaftClusterCommitsWithRemoteRegionsDown(t *testing.T) {
	opts := testOptions(t, quorum.SingleRegionDynamic{})
	c := bootCluster(t, opts, PaperTopology(2, 0))
	client := c.NewClient(0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	client.Write(ctx, "warm", []byte("up"))
	// Kill both remote regions entirely.
	for r := 1; r <= 2; r++ {
		c.Crash(wire.NodeID(fmt.Sprintf("mysql-%d", r)))
		c.Crash(wire.NodeID(fmt.Sprintf("lt-%d-0", r)))
		c.Crash(wire.NodeID(fmt.Sprintf("lt-%d-1", r)))
	}
	res, err := client.Write(ctx, "in-region", []byte("commit"))
	if err != nil {
		t.Fatalf("in-region quorum write failed: %v", err)
	}
	if res.Latency > 2*time.Second {
		t.Fatalf("in-region commit took %v", res.Latency)
	}
}

func TestLearnerReceivesDataButNeverLeads(t *testing.T) {
	opts := testOptions(t, nil)
	c := bootCluster(t, opts, PaperTopology(1, 1))
	client := c.NewClient(0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 10; i++ {
		client.Write(ctx, fmt.Sprintf("k%d", i), []byte("v"))
	}
	// The learner applies data.
	waitFor(t, "learner applies", func() bool {
		m := c.Member("learner-0")
		v, ok := m.Server().Read("k9")
		return ok && string(v) == "v"
	})
	// Crash every voter-capable MySQL and all logtailers: the learner
	// must NOT become leader.
	c.Crash("mysql-0")
	c.Crash("mysql-1")
	c.Crash("lt-0-0")
	c.Crash("lt-0-1")
	c.Crash("lt-1-0")
	c.Crash("lt-1-1")
	time.Sleep(100 * time.Millisecond)
	if st := c.Member("learner-0").Node().Status(); st.Role == raft.RoleLeader {
		t.Fatal("learner became leader")
	}
}

func TestFlushBinaryLogsRotatesEverywhere(t *testing.T) {
	c := bootCluster(t, testOptions(t, nil), smallTopology())
	client := c.NewClient(0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	client.Write(ctx, "a", []byte("1"))
	primary := c.Member("mysql-0").Server()
	if err := primary.FlushBinaryLogs(ctx); err != nil {
		t.Fatal(err)
	}
	client.Write(ctx, "b", []byte("2"))
	// Every member's log rotated: at least 2 files, including logtailers.
	waitFor(t, "rotation everywhere", func() bool {
		for _, m := range c.Members() {
			var n int
			switch {
			case m.Server() != nil:
				n = len(m.Server().BinlogFiles())
			case m.Tailer() != nil:
				n = len(m.Tailer().Log().Files())
			}
			if n < 2 {
				return false
			}
		}
		return true
	})
}

func TestPurgeSafelyRespectsRegionWatermarks(t *testing.T) {
	c := bootCluster(t, testOptions(t, nil), smallTopology())
	client := c.NewClient(0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Stall region-1 so its watermark lags.
	c.Net().IsolateRegion("region-1")
	for i := 0; i < 10; i++ {
		client.Write(ctx, fmt.Sprintf("k%d", i), []byte("v"))
	}
	primary := c.Member("mysql-0")
	primary.Server().FlushBinaryLogs(ctx)
	for i := 10; i < 20; i++ {
		client.Write(ctx, fmt.Sprintf("k%d", i), []byte("v"))
	}
	before := primary.Server().BinlogFiles()
	filesBefore := len(before)
	if err := primary.Plugin().PurgeSafely(); err != nil {
		t.Fatal(err)
	}
	// Nothing purged: every file listed before is still listed. (A count
	// would not do: a rotate may land in between and add one.)
	kept := make(map[string]bool)
	for _, f := range primary.Server().BinlogFiles() {
		kept[f.Name] = true
	}
	for _, f := range before {
		if !kept[f.Name] {
			t.Fatalf("purged %s while region-1 lagging", f.Name)
		}
	}
	// Heal; watermarks advance; purge now proceeds.
	c.Net().HealAll()
	waitFor(t, "watermark advance and purge", func() bool {
		if err := primary.Plugin().PurgeSafely(); err != nil {
			return false
		}
		return len(primary.Server().BinlogFiles()) < filesBefore
	})
}

func TestMockElectionProtectsAgainstLaggingTargetRegion(t *testing.T) {
	opts := testOptions(t, quorum.SingleRegionDynamic{})
	opts.Raft.MockLagAllowance = 4
	c := bootCluster(t, opts, PaperTopology(1, 0))
	client := c.NewClient(0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Lag region-1's logtailers.
	c.Net().Partition("mysql-0", "lt-1-0")
	c.Net().Partition("mysql-0", "lt-1-1")
	c.Net().Partition("mysql-1", "lt-1-0")
	c.Net().Partition("mysql-1", "lt-1-1")
	for i := 0; i < 30; i++ {
		if _, err := client.Write(ctx, fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	err := c.TransferLeadership("mysql-1")
	if err == nil {
		t.Fatal("transfer into lagging region succeeded; mock election should have failed")
	}
	// Client writes continue against the original primary: no downtime.
	if _, err := client.Write(ctx, "still-up", []byte("v")); err != nil {
		t.Fatal(err)
	}
}

func TestProxyingClusterConverges(t *testing.T) {
	opts := testOptions(t, quorum.SingleRegionDynamic{})
	opts.Raft.Route = raft.RegionProxyRoute
	c := bootCluster(t, opts, PaperTopology(2, 0))
	client := c.NewClient(0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 20; i++ {
		if _, err := client.Write(ctx, fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "proxied log equality", func() bool {
		sums, err := c.LogChecksums(1)
		if err != nil || len(sums) != 9 {
			return false
		}
		want := sums["mysql-0"]
		for _, s := range sums {
			if s != want {
				return false
			}
		}
		return true
	})
}

func TestMembershipChangeThroughCluster(t *testing.T) {
	c := bootCluster(t, testOptions(t, nil), smallTopology())
	leader := c.Leader()
	op, err := leader.Node().AddMember(wire.Member{ID: "mysql-2", Region: "region-1", Voter: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := leader.Node().WaitCommitted(ctx, op.Index); err != nil {
		t.Fatal(err)
	}
	// All members see the new config.
	waitFor(t, "config propagation", func() bool {
		for _, m := range c.Members() {
			if m.Node() == nil {
				continue
			}
			if _, ok := m.Node().Status().Config.Find("mysql-2"); !ok {
				return false
			}
		}
		return true
	})
}

func TestAddAndRemoveMemberLifecycle(t *testing.T) {
	c := bootCluster(t, testOptions(t, nil), smallTopology())
	client := c.NewClient(0)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 10; i++ {
		if _, err := client.Write(ctx, fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Add a brand-new failover replica; it must catch up from scratch.
	if err := c.AddMember(ctx, MemberSpec{ID: "mysql-9", Region: "region-1", Kind: KindMySQL, Voter: true}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "new member catches up", func() bool {
		m := c.Member("mysql-9")
		if m == nil || m.Server() == nil {
			return false
		}
		v, ok := m.Server().Read("k9")
		return ok && string(v) == "v"
	})
	// It participates: crash the primary, new member or mysql-1 takes over.
	if err := c.Crash("mysql-0"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AnyPrimary(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart("mysql-0"); err != nil {
		t.Fatal(err)
	}
	// Remove it again; the config shrinks everywhere.
	if err := c.RemoveMember(ctx, "mysql-9"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "config shrinks", func() bool {
		l := c.Leader()
		if l == nil || l.Node() == nil {
			return false
		}
		_, ok := l.Node().Status().Config.Find("mysql-9")
		return !ok
	})
	if c.Member("mysql-9") != nil {
		t.Fatal("removed member still tracked")
	}
}

func TestLogMaintenanceRotatesAndPurges(t *testing.T) {
	c := bootCluster(t, testOptions(t, nil), smallTopology())
	client := c.NewClient(0)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	primary := c.Member("mysql-0")
	mctx, mcancel := context.WithCancel(ctx)
	defer mcancel()
	go primary.Plugin().RunLogMaintenance(mctx, 10*time.Millisecond, 4096)

	// Keep writing until the maintenance loop rotates (bounded), so the
	// test is robust to scheduler slowness (e.g. under the race detector).
	payload := make([]byte, 400)
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; len(primary.Server().BinlogFiles()) < 2; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("maintenance never rotated; files=%v", primary.Server().BinlogFiles())
		}
		if _, err := client.Write(ctx, fmt.Sprintf("big%d", i), payload); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "purge", func() bool {
		files := primary.Server().BinlogFiles()
		return files[0].FirstIndex > 1 || len(files) < 8
	})
}

// Close removes a state directory New created itself and leaves a
// caller-supplied one alone.
func TestCloseRemovesOnlyOwnedStateDir(t *testing.T) {
	specs := []MemberSpec{{ID: "n0", Region: "r1", Kind: KindMySQL, Voter: true}}

	owned, err := New(Options{}, specs)
	if err != nil {
		t.Fatal(err)
	}
	dir := owned.opts.Dir
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("state dir New created is missing while running: %v", err)
	}
	owned.Close()
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("Close left the temp state dir %s behind (stat err = %v)", dir, err)
	}

	supplied := t.TempDir()
	c, err := New(Options{Dir: supplied}, specs)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := os.Stat(filepath.Join(supplied, "n0")); err != nil {
		t.Fatalf("Close removed state under a caller-supplied Dir: %v", err)
	}
}
