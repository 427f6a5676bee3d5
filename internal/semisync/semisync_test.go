package semisync

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"myraft/internal/transport"
	"myraft/internal/wire"
)

// paperSpecs builds the baseline topology matching the paper: one MySQL +
// two logtailer ackers per region.
func paperSpecs(nRegions int) []NodeSpec {
	var specs []NodeSpec
	for r := 0; r < nRegions; r++ {
		region := wire.Region(fmt.Sprintf("region-%d", r))
		specs = append(specs,
			NodeSpec{ID: wire.NodeID(fmt.Sprintf("mysql-%d", r)), Region: region, Kind: KindMySQL},
			NodeSpec{ID: wire.NodeID(fmt.Sprintf("lt-%d-0", r)), Region: region, Kind: KindLogtailer},
			NodeSpec{ID: wire.NodeID(fmt.Sprintf("lt-%d-1", r)), Region: region, Kind: KindLogtailer},
		)
	}
	return specs
}

func newTestReplicaset(t *testing.T, nRegions int) *Replicaset {
	t.Helper()
	rs, err := New(Options{
		Name: "rs-base",
		Dir:  t.TempDir(),
		NetConfig: transport.Config{
			IntraRegion: 200 * time.Microsecond,
			CrossRegion: 2 * time.Millisecond,
		},
	}, paperSpecs(nRegions))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rs.Close)
	return rs
}

func bootstrapped(t *testing.T, nRegions int) *Replicaset {
	t.Helper()
	rs := newTestReplicaset(t, nRegions)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rs.MakePrimary(ctx, "mysql-0"); err != nil {
		t.Fatal(err)
	}
	return rs
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestSemiSyncCommitWaitsForAcker(t *testing.T) {
	rs := bootstrapped(t, 2)
	primary := rs.Node("mysql-0").Server()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	op, err := primary.Set(ctx, "k", []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	if op.IsZero() {
		t.Fatal("zero opid")
	}
	// The in-region ackers have the entry by commit time.
	acked := false
	for _, id := range []wire.NodeID{"lt-0-0", "lt-0-1"} {
		if rs.Node(id).LastIndex() >= op.Index {
			acked = true
		}
	}
	if !acked {
		t.Fatal("commit returned before any acker had the entry")
	}
}

func TestSemiSyncCommitStallsWithoutAckers(t *testing.T) {
	rs := bootstrapped(t, 2)
	// Kill both in-region ackers; semi-sync cannot commit.
	rs.Crash("lt-0-0")
	rs.Crash("lt-0-1")
	primary := rs.Node("mysql-0").Server()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if _, err := primary.Set(ctx, "k", []byte("v")); err == nil {
		t.Fatal("committed without any semi-sync acker")
	}
}

func TestAsyncReplicasApply(t *testing.T) {
	rs := bootstrapped(t, 2)
	primary := rs.Node("mysql-0").Server()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 10; i++ {
		if _, err := primary.Set(ctx, fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, "async replica apply", func() bool {
		v, ok := rs.Node("mysql-1").Server().Read("k9")
		return ok && string(v) == "v"
	})
	waitUntil(t, "engine checksum match", func() bool {
		sums := rs.EngineChecksums()
		return sums["mysql-0"] == sums["mysql-1"]
	})
}

func TestReplicaRejectsClientWrites(t *testing.T) {
	rs := bootstrapped(t, 2)
	ctx := context.Background()
	if _, err := rs.Node("mysql-1").Server().Set(ctx, "x", []byte("y")); err == nil {
		t.Fatal("replica accepted client write")
	}
}

func TestGracefulDemoteAndRepromote(t *testing.T) {
	rs := bootstrapped(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	primary := rs.Node("mysql-0").Server()
	primary.Set(ctx, "pre", []byte("1"))

	// Demote mysql-0, wait for mysql-1 to drain, promote it.
	tail := rs.Node("mysql-0").LastIndex()
	waitUntil(t, "target drain", func() bool { return rs.Node("mysql-1").LastIndex() >= tail })
	if err := rs.Demote("mysql-0"); err != nil {
		t.Fatal(err)
	}
	if err := rs.AlignReplicaLogs("mysql-1"); err != nil {
		t.Fatal(err)
	}
	if err := rs.MakePrimary(ctx, "mysql-1"); err != nil {
		t.Fatal(err)
	}
	rs.ResumeReplication("mysql-0")

	if rs.Primary() != "mysql-1" {
		t.Fatalf("primary = %s", rs.Primary())
	}
	// New primary accepts writes; old data intact; old primary receives
	// the new stream.
	if _, err := rs.Node("mysql-1").Server().Set(ctx, "post", []byte("2")); err != nil {
		t.Fatal(err)
	}
	if v, ok := rs.Node("mysql-1").Server().Read("pre"); !ok || string(v) != "1" {
		t.Fatalf("pre data = %q %v", v, ok)
	}
	waitUntil(t, "old primary follows", func() bool {
		v, ok := rs.Node("mysql-0").Server().Read("post")
		return ok && string(v) == "2"
	})
}

func TestCrashAndRestartRejoinsAsReplica(t *testing.T) {
	rs := bootstrapped(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	primary := rs.Node("mysql-0").Server()
	primary.Set(ctx, "a", []byte("1"))
	rs.Crash("mysql-1")
	primary.Set(ctx, "b", []byte("2"))
	if err := rs.Restart("mysql-1"); err != nil {
		t.Fatal(err)
	}
	rs.ResumeReplication("mysql-1")
	waitUntil(t, "restarted replica catches up", func() bool {
		n := rs.Node("mysql-1")
		if n == nil || n.Server() == nil {
			return false
		}
		v, ok := n.Server().Read("b")
		return ok && string(v) == "2"
	})
}

func TestAlignTruncatesDivergentReplica(t *testing.T) {
	rs := bootstrapped(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	primary := rs.Node("mysql-0").Server()
	// Write with region-2 cut off so mysql-2 lags.
	rs.Net().IsolateRegion("region-2")
	for i := 0; i < 5; i++ {
		if _, err := primary.Set(ctx, fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	tailFull := rs.Node("mysql-0").LastIndex()
	waitUntil(t, "mysql-1 drains", func() bool { return rs.Node("mysql-1").LastIndex() >= tailFull })
	rs.Net().HealAll()

	// Fail over to the LAGGING replica (as automation might under a
	// partial view): longer logs elsewhere must truncate to match.
	rs.Crash("mysql-0")
	lagTail := rs.Node("mysql-2").LastIndex()
	if err := rs.AlignReplicaLogs("mysql-2"); err != nil {
		t.Fatal(err)
	}
	if got := rs.Node("mysql-1").LastIndex(); got > lagTail {
		t.Fatalf("mysql-1 log not truncated: %d > %d", got, lagTail)
	}
	if err := rs.MakePrimary(ctx, "mysql-2"); err != nil {
		t.Fatal(err)
	}
	// The baseline lost the acked-but-unreplicated tail — the data-loss
	// hazard of the prior setup the paper calls out.
	if _, err := rs.Node("mysql-2").Server().Set(ctx, "post", []byte("x")); err != nil {
		t.Fatal(err)
	}
}

// Close removes a state directory New created itself and leaves a
// caller-supplied one alone.
func TestCloseRemovesOnlyOwnedStateDir(t *testing.T) {
	specs := paperSpecs(1)

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
	rs, err := New(Options{Dir: supplied}, specs)
	if err != nil {
		t.Fatal(err)
	}
	rs.Close()
	if _, err := os.Stat(filepath.Join(supplied, "mysql-0")); err != nil {
		t.Fatalf("Close removed state under a caller-supplied Dir: %v", err)
	}
}
