package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"myraft/internal/binlog"
	"myraft/internal/cluster"
	"myraft/internal/logstore"
	"myraft/internal/multiraft"
	"myraft/internal/raft"
	"myraft/internal/storage"
	"myraft/internal/wire"
)

// stateRoot creates the directory a run's runtimes keep their files in:
// under dir when given, else under /dev/shm when that is writable, else
// under .bench_build/state in the working directory. On a memory
// filesystem the program's real fsync calls cost nothing, which leaves the
// modeled fsync (logstore.Delayed) as the only device latency; on a disk
// they add the disk's own latency and its noise to every commit. The
// caller removes the directory when the run ends.
func stateRoot(dir string) (string, error) {
	candidates := []string{"/dev/shm", filepath.Join(".bench_build", "state")}
	if dir != "" {
		candidates = []string{dir}
	}
	var err error
	for _, c := range candidates {
		if err = os.MkdirAll(c, 0o755); err != nil {
			continue
		}
		var root string
		if root, err = os.MkdirTemp(c, "myraft-bench-"); err == nil {
			return root, nil
		}
	}
	return "", err
}

// fsName names the filesystem holding path from its statfs magic.
func fsName(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// bootRuntime is the timed part of set-up: build every ring, elect the
// initial leaders and preload every key with its seq-0 value.
func bootRuntime(ctx context.Context, s spec, dir string, seed int64, traced bool) (*multiraft.Runtime, error) {
	sample := -1
	if traced {
		sample = 0
	}
	rt, err := multiraft.New(multiraft.Options{
		Shards:           s.Shards,
		Specs:            s.Members,
		Name:             "bench-" + s.Name,
		Dir:              dir,
		Raft:             s.Raft,
		NetConfig:        s.Net,
		Seed:             seed,
		TraceSampleEvery: sample,
		WrapLogStore: func(_ wire.NodeID, st raft.LogStore) raft.LogStore {
			return logstore.Delayed{Inner: st, SyncDelay: s.Fsync}
		},
	})
	if err != nil {
		return nil, err
	}
	if err := rt.Bootstrap(ctx); err != nil {
		rt.Close()
		return nil, fmt.Errorf("bootstrap: %w", err)
	}
	if err := preload(ctx, rt); err != nil {
		rt.Close()
		return nil, fmt.Errorf("preload: %w", err)
	}
	return rt, nil
}

// preload writes every key's seq-0 value, 100 rows per transaction, on
// each shard's primary.
func preload(ctx context.Context, rt *multiraft.Runtime) error {
	const rowsPerTxn = 100
	byShard := make(map[wire.ShardID][]int)
	for k := 0; k < keyCount; k++ {
		sh := rt.Router().ShardFor(keyName(k))
		byShard[sh] = append(byShard[sh], k)
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(byShard))
	for sh, keys := range byShard {
		wg.Add(1)
		go func(ring *cluster.Cluster, keys []int) {
			defer wg.Done()
			primary, err := ring.AnyPrimary(ctx)
			if err != nil {
				errs <- err
				return
			}
			buf := make([]byte, valueSize)
			for len(keys) > 0 {
				n := min(rowsPerTxn, len(keys))
				batch := keys[:n]
				keys = keys[n:]
				_, err := primary.Server().ExecuteWrite(ctx, func(t *storage.Txn) error {
					for _, k := range batch {
						if err := t.Set(keyName(k), fillValue(buf, k, 0)); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}(rt.Shard(sh), keys)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// setUp boots the workload's runtime setups times, timing each, and keeps
// the last one running. setup_s is the median of the timings.
func setUp(ctx context.Context, s spec, root string, seed int64, traced bool, setups int) (*multiraft.Runtime, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		dir := filepath.Join(root, fmt.Sprintf("setup-%d", i))
		start := time.Now()
		rt, err := bootRuntime(ctx, s, dir, seed, traced)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i == setups-1 {
			return rt, median(times), nil
		}
		rt.Close()
		if err := os.RemoveAll(dir); err != nil {
			return nil, 0, err
		}
	}
}

// rings returns every shard's ring in shard order.
func rings(rt *multiraft.Runtime) []*cluster.Cluster {
	out := make([]*cluster.Cluster, rt.Shards())
	for sh := range out {
		out[sh] = rt.Shard(wire.ShardID(sh))
	}
	return out
}

// counters is one reading of every cumulative count the benchmark
// differences over a measured window. Member-level counts are summed over
// every up member of every shard; they restart from zero when a member
// restarts, so the failover workload does not report them.
type counters struct {
	at      time.Time
	elapsed time.Duration // set by minus

	// Process: allocations, collector pauses (ns) and CPU time (ns).
	mallocs, allocBytes, gcPauseNs, cpuNs float64
	// Simulated network.
	netBytes, netXRegionBytes, netMsgs, netDropped float64
	// Raft log writers (all members) and leaders' event loops (ns).
	raftFsyncs, loopBlockedNs float64
	// Binlogs, all members.
	binlogAppends, binlogBytes, binlogSyncs float64
	// MySQL commit pipelines (busy times in ns) and appliers.
	groups, txns, flushBusy, quorumBusy, engineBusy float64
	syncsCoalesced, engineSyncs                     float64
	applyTracked, applyFallbacks                    float64
	// Per-node sync groups and heartbeat coalescing; routed-write gates.
	sgRequests, sgSyncs, hbFlushes, hbItems float64
	staleRejects, fenceWaits                float64
}

func readCounters(rt *multiraft.Runtime) counters {
	c := counters{at: time.Now()}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocBytes, c.gcPauseNs = float64(ms.Mallocs), float64(ms.TotalAlloc), float64(ms.PauseTotalNs)
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.cpuNs = float64(ru.Utime.Nano() + ru.Stime.Nano())
	}

	ns := rt.Net().Stats()
	c.netBytes, c.netXRegionBytes, c.netDropped = float64(ns.TotalBytes()), float64(ns.CrossRegionBytes()), float64(ns.Dropped)
	for _, ls := range ns.ByRegionPair {
		c.netMsgs += float64(ls.Messages)
	}

	for _, ring := range rings(rt) {
		for _, m := range ring.Members() {
			node, srv, tailer := m.Node(), m.Server(), m.Tailer()
			if m.IsDown() || node == nil {
				continue
			}
			ds := node.DurabilityStats()
			c.raftFsyncs += float64(ds.Fsyncs)
			if node.Status().Role == raft.RoleLeader {
				c.loopBlockedNs += float64(ds.LoopBlocked)
			}
			var log *binlog.Log
			switch {
			case srv != nil:
				log = srv.Log()
			case tailer != nil:
				log = tailer.Log()
			}
			if log != nil {
				ls := log.Stats()
				c.binlogAppends += float64(ls.Appends)
				c.binlogBytes += float64(ls.AppendBytes)
				c.binlogSyncs += float64(ls.Syncs)
			}
			if srv != nil {
				ps := srv.PipelineStatus()
				c.groups += float64(ps.GroupsProposed)
				c.txns += float64(ps.TxnsCommitted)
				c.flushBusy += float64(ps.FlushBusyNs)
				c.quorumBusy += float64(ps.QuorumBusyNs)
				c.engineBusy += float64(ps.EngineBusyNs)
				c.syncsCoalesced += float64(ps.SyncsCoalesced)
				c.engineSyncs += float64(ps.EngineSyncs)
				as := srv.ApplyStatus()
				c.applyTracked += float64(as.TrackedTxns)
				c.applyFallbacks += float64(as.ConflictFallbacks)
			}
		}
	}
	for _, id := range rt.Nodes() {
		sg := rt.SyncGroup(id).Stats()
		c.sgRequests += float64(sg.Requests)
		c.sgSyncs += float64(sg.Syncs)
		dx := rt.Demux(id).Stats()
		for _, n := range dx.CoalescedFlushes {
			c.hbFlushes += float64(n)
		}
		c.hbItems += float64(dx.CoalescedItems)
	}
	c.staleRejects, c.fenceWaits = float64(rt.StaleRejects()), float64(rt.FenceWaits())
	return c
}

// minus returns the growth of every count since the earlier reading b.
func (c counters) minus(b counters) counters {
	return counters{
		at: c.at, elapsed: c.at.Sub(b.at),
		mallocs: c.mallocs - b.mallocs, allocBytes: c.allocBytes - b.allocBytes,
		gcPauseNs: c.gcPauseNs - b.gcPauseNs, cpuNs: c.cpuNs - b.cpuNs,
		netBytes: c.netBytes - b.netBytes, netXRegionBytes: c.netXRegionBytes - b.netXRegionBytes,
		netMsgs: c.netMsgs - b.netMsgs, netDropped: c.netDropped - b.netDropped,
		raftFsyncs: c.raftFsyncs - b.raftFsyncs, loopBlockedNs: c.loopBlockedNs - b.loopBlockedNs,
		binlogAppends: c.binlogAppends - b.binlogAppends, binlogBytes: c.binlogBytes - b.binlogBytes,
		binlogSyncs: c.binlogSyncs - b.binlogSyncs,
		groups:      c.groups - b.groups, txns: c.txns - b.txns,
		flushBusy: c.flushBusy - b.flushBusy, quorumBusy: c.quorumBusy - b.quorumBusy,
		engineBusy:     c.engineBusy - b.engineBusy,
		syncsCoalesced: c.syncsCoalesced - b.syncsCoalesced, engineSyncs: c.engineSyncs - b.engineSyncs,
		applyTracked: c.applyTracked - b.applyTracked, applyFallbacks: c.applyFallbacks - b.applyFallbacks,
		sgRequests: c.sgRequests - b.sgRequests, sgSyncs: c.sgSyncs - b.sgSyncs,
		hbFlushes: c.hbFlushes - b.hbFlushes, hbItems: c.hbItems - b.hbItems,
		staleRejects: c.staleRejects - b.staleRejects, fenceWaits: c.fenceWaits - b.fenceWaits,
	}
}
