package multiraft

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"myraft/internal/cluster"
	"myraft/internal/raft"
	"myraft/internal/transport"
	"myraft/internal/wire"
)

func threeNodeSpecs() []cluster.MemberSpec {
	return []cluster.MemberSpec{
		{ID: "n0", Region: "r1", Kind: cluster.KindMySQL, Voter: true},
		{ID: "n1", Region: "r1", Kind: cluster.KindMySQL, Voter: true},
		{ID: "n2", Region: "r1", Kind: cluster.KindMySQL, Voter: true},
	}
}

func testOptions(t *testing.T, shards int) Options {
	t.Helper()
	return Options{
		Shards: shards,
		Specs:  threeNodeSpecs(),
		Dir:    t.TempDir(),
		Raft: raft.Config{
			HeartbeatInterval: 20 * time.Millisecond,
		},
		NetConfig: transport.Config{
			IntraRegion: 200 * time.Microsecond,
			CrossRegion: time.Millisecond,
		},
		Seed: 1,
	}
}

// bootstrapAllAt elects node id the initial leader of every shard,
// concurrently.
func bootstrapAllAt(ctx context.Context, t *testing.T, rt *Runtime, id wire.NodeID) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, rt.Shards())
	for s := 0; s < rt.Shards(); s++ {
		wg.Add(1)
		go func(shard wire.ShardID) {
			defer wg.Done()
			errs <- rt.Shard(shard).Bootstrap(ctx, id)
		}(wire.ShardID(s))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// keyForShard finds a key the router sends to the given shard.
func keyForShard(r *Router, shard wire.ShardID) string {
	for i := 0; ; i++ {
		k := fmt.Sprintf("shard-%d-key-%d", shard, i)
		if r.ShardFor(k) == shard {
			return k
		}
	}
}

// The acceptance scenario: 3 nodes × 16 shards in one process set. Every
// shard elects a leader, serves routed writes and linearizable reads, and
// the balancer spreads leadership to ≤ ⌈shards/up-nodes⌉ + 1 per node.
func TestRuntimeSixteenShards(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	const shards = 16
	rt, err := New(testOptions(t, shards))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	// All leaders start on n0 so the balancer has real work below.
	bootstrapAllAt(ctx, t, rt, "n0")
	for _, st := range rt.ShardStatuses() {
		if st.Leader == "" {
			t.Fatalf("shard %d has no leader after bootstrap", st.Shard)
		}
	}

	// Routed writes and linearizable reads on every shard.
	cl := rt.NewClient(0)
	for s := wire.ShardID(0); s < shards; s++ {
		key := keyForShard(rt.Router(), s)
		want := []byte(fmt.Sprintf("value-%d", s))
		if _, err := cl.Write(ctx, key, want); err != nil {
			t.Fatalf("write to shard %d: %v", s, err)
		}
		res, err := cl.ReadLinearizable(ctx, key)
		if err != nil {
			t.Fatalf("linearizable read from shard %d: %v", s, err)
		}
		if !res.Found || string(res.Value) != string(want) {
			t.Fatalf("shard %d read = %q found=%v, want %q", s, res.Value, res.Found, want)
		}
	}

	// Balance: from 16 leaders on one node to an even spread.
	target := (shards + 2) / 3 // ⌈16/3⌉ = 6
	deadline := time.Now().Add(time.Minute)
	for {
		rt.BalanceOnce(ctx)
		max := 0
		for _, shardIDs := range rt.LeadersByNode() {
			if len(shardIDs) > max {
				max = len(shardIDs)
			}
		}
		if max <= target {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("balancer did not converge: max %d > %d+1, leaders %v",
				max, target, rt.LeadersByNode())
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Leadership must not have been lost anywhere in the shuffle.
	total := 0
	for _, shardIDs := range rt.LeadersByNode() {
		total += len(shardIDs)
	}
	if total != shards {
		t.Fatalf("leaders lost during balancing: %v", rt.LeadersByNode())
	}

	// The demux never routed a message to a shard a node does not host.
	for _, id := range rt.Nodes() {
		if drops := rt.Demux(id).Stats().UnknownShardDrops; drops != 0 {
			t.Fatalf("node %s dropped %d unknown-shard messages", id, drops)
		}
	}

	// The metrics rollup reflects the survey: runtime scope carries the
	// shard count, per-node registries carry leaders-held — as properly
	// named families with the node as a label dimension, never a node ID
	// baked into a metric name.
	snap := rt.Metrics().Snapshot()
	if snap["shards_hosted"] != shards {
		t.Fatalf("shards_hosted = %d", snap["shards_hosted"])
	}
	if snap["router_table_version"] != 1 {
		t.Fatalf("router_table_version = %d, want 1", snap["router_table_version"])
	}
	var held int64
	for _, nr := range rt.NodeRegistries() {
		held += nr.Reg.Snapshot()["multiraft_leaders_held"]
	}
	if held != shards {
		t.Fatalf("multiraft_leaders_held sums to %d, want %d", held, shards)
	}
}

// Heartbeat coalescing on the wire: with 8 shard leaders on one node,
// each peer receives ONE physical heartbeat message per interval, not 8.
func TestRuntimeCoalescedHeartbeatRate(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	const shards = 8
	const hb = 20 * time.Millisecond
	opts := testOptions(t, shards)
	opts.Raft.HeartbeatInterval = hb
	rt, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	bootstrapAllAt(ctx, t, rt, "n0")

	// Settle, then measure a window of whole intervals.
	time.Sleep(4 * hb)
	before := rt.Demux("n0").Stats()
	const intervals = 20
	time.Sleep(intervals * hb)
	after := rt.Demux("n0").Stats()

	for _, peer := range []wire.NodeID{"n1", "n2"} {
		flushes := after.CoalescedFlushes[peer] - before.CoalescedFlushes[peer]
		// One message per interval: allow slack for scheduling, but the
		// un-coalesced rate (shards per interval) must be unreachable.
		if flushes < intervals/2 || flushes > intervals*2 {
			t.Fatalf("peer %s saw %d coalesced flushes over %d intervals, want ≈%d",
				peer, flushes, intervals, intervals)
		}
	}
	// Each flush piggybacked (close to) every shard's heartbeat.
	flushDelta := int64(0)
	for _, peer := range []wire.NodeID{"n1", "n2"} {
		flushDelta += after.CoalescedFlushes[peer] - before.CoalescedFlushes[peer]
	}
	itemDelta := after.CoalescedItems - before.CoalescedItems
	if fanout := float64(itemDelta) / float64(flushDelta); fanout < shards/2 {
		t.Fatalf("coalescing fan-out %.1f, want ≥ %d (items %d over %d flushes)",
			fanout, shards/2, itemDelta, flushDelta)
	}

	// Coalesced delivery kept every ring stable: all leaders still on n0,
	// terms unchanged enough that every shard has exactly one leader.
	for _, st := range rt.ShardStatuses() {
		if st.Leader != "n0" {
			t.Fatalf("shard %d leadership moved to %s under coalescing", st.Shard, st.Leader)
		}
	}
}

// A node crash takes all its rings down together; restart rejoins them
// all through the same demux ports, and writes keep flowing throughout.
func TestRuntimeCrashRestartAcrossShards(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	rt, err := New(testOptions(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	bootstrapAllAt(ctx, t, rt, "n0")

	if err := rt.Crash("n1"); err != nil {
		t.Fatal(err)
	}
	cl := rt.NewClient(0)
	for s := wire.ShardID(0); s < 4; s++ {
		key := keyForShard(rt.Router(), s)
		if _, err := cl.Write(ctx, key, []byte("during-crash")); err != nil {
			t.Fatalf("write to shard %d with n1 down: %v", s, err)
		}
	}
	if up := rt.UpNodes(); len(up) != 2 {
		t.Fatalf("UpNodes = %v", up)
	}
	if err := rt.Restart("n1"); err != nil {
		t.Fatal(err)
	}
	// n1 must catch up on every shard: its commit index reaches each
	// shard leader's write.
	for s := wire.ShardID(0); s < 4; s++ {
		key := keyForShard(rt.Router(), s)
		if _, err := cl.Write(ctx, key, []byte("after-restart")); err != nil {
			t.Fatalf("write to shard %d after restart: %v", s, err)
		}
		res, err := cl.ReadSession(ctx, "n1", key)
		if err != nil {
			t.Fatalf("session read from n1 on shard %d: %v", s, err)
		}
		if string(res.Value) != "after-restart" {
			t.Fatalf("n1 shard %d value %q", s, res.Value)
		}
	}
}

// Close removes a state directory New created itself and leaves a
// caller-supplied one alone.
func TestCloseRemovesOnlyOwnedStateDir(t *testing.T) {
	opts := testOptions(t, 2)
	supplied := opts.Dir

	opts.Dir = ""
	owned, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	dir := owned.opts.Dir
	if _, err := os.Stat(filepath.Join(dir, "shard-1")); err != nil {
		t.Fatalf("state dir New created is missing while running: %v", err)
	}
	owned.Close()
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("Close left the temp state dir %s behind (stat err = %v)", dir, err)
	}

	opts.Dir = supplied
	rt, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	rt.Close()
	if _, err := os.Stat(filepath.Join(supplied, "shard-1")); err != nil {
		t.Fatalf("Close removed state under a caller-supplied Dir: %v", err)
	}
}
