package experiments

// multiraftexp.go measures the multi-shard runtime's scaling claim
// (DESIGN.md §8): with N rings per process sharing one endpoint, the
// per-(node, peer) heartbeat message rate stays O(1) in N — the demux
// ships one coalesced message per peer per interval carrying all N
// shard heartbeats — while routed write throughput scales with the
// shard count: each ring's log writer issues its own fsyncs, which the
// per-node SyncGroup counts and lets overlap.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"myraft/internal/cluster"
	"myraft/internal/logstore"
	"myraft/internal/multiraft"
	"myraft/internal/raft"
	"myraft/internal/transport"
	"myraft/internal/wire"
)

// MultiRaftResult holds one shard-count's measurements.
type MultiRaftResult struct {
	Shards int
	// Writes is the number of routed writes acknowledged in the workload
	// window; WritesPerSec normalizes by that window.
	Writes       int64
	WritesPerSec float64
	// HBMsgsPerPeerInterval is the measured physical heartbeat-message
	// rate per (leader-hosting node, peer) pair per heartbeat interval,
	// over an idle window. Coalescing holds it ≈1 regardless of Shards;
	// uncoalesced it would be ≈Shards.
	HBMsgsPerPeerInterval float64
	// HBFanout is shard heartbeats carried per physical message
	// (items/flushes over the idle window) — ≈ the shards each leader
	// node hosts (Shards/3 under round-robin placement), the coalescing
	// multiplier a lone message rate of 1 hides.
	HBFanout float64
	// FsyncRequests / FsyncPhysical count ring-issued log syncs vs device
	// flushes as the per-node SyncGroups saw them up to the end of the
	// workload window (equal: every ring's writer is its store's only
	// caller).
	FsyncRequests int64
	FsyncPhysical int64
	Params        Params
}

// FsyncCoalescing returns requests per physical device flush.
func (r *MultiRaftResult) FsyncCoalescing() float64 {
	if r.FsyncPhysical == 0 {
		return 0
	}
	return float64(r.FsyncRequests) / float64(r.FsyncPhysical)
}

// String renders the row.
func (r *MultiRaftResult) String() string {
	return fmt.Sprintf(
		"shards=%d writes/s=%.0f hb msgs/(peer·interval)=%.2f fanout=%.1f fsync coalescing=%.1fx (%d req / %d phys)",
		r.Shards, r.WritesPerSec, r.HBMsgsPerPeerInterval, r.HBFanout,
		r.FsyncCoalescing(), r.FsyncRequests, r.FsyncPhysical)
}

// MultiRaftShards runs the multi-shard scaling experiment at one shard
// count: boot 3 nodes × shards rings over the shared coalescing
// transport, drive a routed write workload for p.Duration, then measure
// the heartbeat wire rate over an idle window of whole intervals.
func MultiRaftShards(ctx context.Context, p Params, shards int) (*MultiRaftResult, error) {
	p = p.withDefaults()
	if p.FsyncLatency == 0 {
		p.FsyncLatency = time.Millisecond // a datacenter SSD; tmpfs would hide the device
	}
	const hb = 10 * time.Millisecond
	rt, err := multiraft.New(multiraft.Options{
		Shards: shards,
		Specs: []cluster.MemberSpec{
			{ID: "n0", Region: "r1", Kind: cluster.KindMySQL, Voter: true},
			{ID: "n1", Region: "r1", Kind: cluster.KindMySQL, Voter: true},
			{ID: "n2", Region: "r1", Kind: cluster.KindMySQL, Voter: true},
		},
		Name: fmt.Sprintf("rs-multiexp-%d", shards),
		Dir:  p.Dir,
		Raft: raft.Config{HeartbeatInterval: hb},
		NetConfig: transport.Config{
			IntraRegion: 200 * time.Microsecond,
			CrossRegion: time.Millisecond,
		},
		Seed: 1,
		WrapLogStore: func(_ wire.NodeID, s raft.LogStore) raft.LogStore {
			return logstore.Delayed{Inner: s, SyncDelay: p.FsyncLatency}
		},
	})
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	if err := rt.Bootstrap(ctx); err != nil {
		return nil, err
	}

	res := &MultiRaftResult{Shards: shards, Params: p}

	// Workload window: p.Clients writers spraying keys across all shards
	// through the router.
	wctx, wcancel := context.WithTimeout(ctx, p.Duration)
	var wg sync.WaitGroup
	var writes atomic.Int64
	for i := 0; i < p.Clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := rt.NewClient(0)
			for n := 0; wctx.Err() == nil; n++ {
				key := fmt.Sprintf("exp-w%d-%d", i, n)
				cctx, cancel := context.WithTimeout(wctx, 500*time.Millisecond)
				_, err := cl.Write(cctx, key, []byte("x"))
				cancel()
				if err == nil {
					writes.Add(1)
				}
			}
		}(i)
	}
	wg.Wait()
	wcancel()
	res.Writes = writes.Load()
	res.WritesPerSec = float64(res.Writes) / p.Duration.Seconds()

	// Per-node fsync accounting over the workload window.
	for _, id := range rt.Nodes() {
		st := rt.SyncGroup(id).Stats()
		res.FsyncRequests += st.Requests
		res.FsyncPhysical += st.Syncs
	}

	// Idle window: only heartbeats cross; measure the physical message
	// rate per (node, peer) pair per interval.
	type snap struct{ flushes, items int64 }
	take := func() map[wire.NodeID]snap {
		out := make(map[wire.NodeID]snap)
		for _, id := range rt.Nodes() {
			st := rt.Demux(id).Stats()
			var f int64
			for _, n := range st.CoalescedFlushes {
				f += n
			}
			out[id] = snap{flushes: f, items: st.CoalescedItems}
		}
		return out
	}
	const intervals = 30
	before := take()
	time.Sleep(intervals * hb)
	after := take()

	var flushes, items int64
	leaderNodes := 0
	for id, leaderShards := range rt.LeadersByNode() {
		if len(leaderShards) == 0 {
			continue
		}
		leaderNodes++
		flushes += after[id].flushes - before[id].flushes
		items += after[id].items - before[id].items
	}
	peers := len(rt.Nodes()) - 1
	if leaderNodes > 0 && peers > 0 {
		res.HBMsgsPerPeerInterval = float64(flushes) / float64(leaderNodes*peers*intervals)
	}
	if flushes > 0 {
		res.HBFanout = float64(items) / float64(flushes)
	}
	return res, nil
}
