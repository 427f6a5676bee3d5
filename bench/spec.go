package main

import (
	"fmt"
	"time"

	"myraft/internal/cluster"
	"myraft/internal/quorum"
	"myraft/internal/raft"
	"myraft/internal/transport"
)

// Fixed workload shape shared by every workload (ISSUE 11): 500 B values
// (the paper's mean entry size, §4.2.2), 10 000 keys chosen uniformly, 16
// closed-loop sessions for the steady workloads, one probe every 2 ms for
// the open-loop failover workload.
const (
	valueSize     = 500
	keyCount      = 10000
	sessionCount  = 16
	probeInterval = 2 * time.Millisecond
	warmup        = 2 * time.Second
	heartbeat     = 50 * time.Millisecond
)

// spec is one workload: a topology, its modeled latencies and its op mix.
type spec struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why      string
	Topology string
	Shards   int
	Members  []cluster.MemberSpec
	Net      transport.Config
	Fsync    time.Duration
	Raft     raft.Config
	// ReadPct is the share of ops that are reads, split evenly across the
	// three read levels.
	ReadPct int
	// Failover selects the open-loop probe + crash/transfer trial driver
	// instead of the closed-loop sessions.
	Failover bool
}

func oneRegion(n int) []cluster.MemberSpec {
	out := make([]cluster.MemberSpec, n)
	for i := range out {
		out[i] = cluster.MemberSpec{
			ID: wireID("n", i), Region: "r1", Kind: cluster.KindMySQL, Voter: true,
		}
	}
	return out
}

func paperRaft() raft.Config {
	return raft.Config{
		HeartbeatInterval:    heartbeat,
		ElectionTimeoutTicks: 3,
		Strategy:             quorum.SingleRegionDynamic{},
		Route:                raft.RegionProxyRoute,
	}
}

var paperNet = transport.Config{
	IntraRegion: 150 * time.Microsecond,
	CrossRegion: 15 * time.Millisecond,
	Loopback:    5 * time.Microsecond,
	Jitter:      0.05,
}

// specs lists the four workloads in report order.
var specs = []spec{
	{
		Name:     "oltp_local",
		Why:      "1 us links and a 200 us fsync make processor time per commit dominate, so copy and allocation savings show and batching should not",
		Topology: "1 shard x 3 MySQL voters, one region",
		Shards:   1,
		Members:  oneRegion(3),
		Net:      transport.Config{IntraRegion: time.Microsecond, CrossRegion: time.Microsecond, Loopback: time.Microsecond},
		Fsync:    200 * time.Microsecond,
		Raft:     raft.Config{HeartbeatInterval: heartbeat, ElectionTimeoutTicks: 3},
	},
	{
		Name:     "oltp_wan",
		Why:      "paper topology with a 1 ms fsync and 150 us in-region links: latency-bound, so group commit, pipelining and proxying show and CPU savings should not",
		Topology: "1 shard, cluster.PaperTopology(2,1), single-region-dynamic quorum, region proxying",
		Shards:   1,
		Members:  cluster.PaperTopology(2, 1),
		Net:      paperNet,
		Fsync:    time.Millisecond,
		Raft:     paperRaft(),
	},
	{
		Name:     "sharded_mixed",
		Why:      "8 rings share 3 nodes and half the ops are reads at three levels, so router, demux, sync group and read path costs show beside writes",
		Topology: "8 shards x 3 MySQL voters, one region",
		Shards:   8,
		Members:  oneRegion(3),
		Net:      transport.Config{IntraRegion: 200 * time.Microsecond, CrossRegion: 200 * time.Microsecond, Loopback: 5 * time.Microsecond},
		Fsync:    time.Millisecond,
		Raft:     raft.Config{HeartbeatInterval: heartbeat, ElectionTimeoutTicks: 3},
		ReadPct:  50,
	},
	{
		Name:     "failover",
		Why:      "open-loop 2 ms probes through alternating primary crashes and graceful transfers (Table 2): downtime shows, steady-state optimisations should not",
		Topology: "1 shard, cluster.PaperTopology(2,1), single-region-dynamic quorum, region proxying",
		Shards:   1,
		Members:  cluster.PaperTopology(2, 1),
		Net:      paperNet,
		Fsync:    time.Millisecond,
		Raft:     paperRaft(),
		Failover: true,
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// modeled is the block of modeled latencies recorded with every result.
type modeled struct {
	Topology    string  `json:"topology"`
	Shards      int     `json:"shards"`
	Members     int     `json:"members"`
	Loop        string  `json:"loop"`
	Sessions    int     `json:"sessions"`
	ReadPct     int     `json:"read_pct"`
	IntraUs     float64 `json:"intra_region_us"`
	CrossUs     float64 `json:"cross_region_us"`
	LoopbackUs  float64 `json:"loopback_us"`
	Jitter      float64 `json:"jitter"`
	FsyncUs     float64 `json:"fsync_us"`
	HeartbeatMs float64 `json:"heartbeat_ms"`
	ElectTicks  int     `json:"election_timeout_ticks"`
	ValueBytes  int     `json:"value_bytes"`
	Keys        int     `json:"keys"`
	ProbeEvery  float64 `json:"probe_interval_ms,omitempty"`
}

func (s spec) modeled() modeled {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	m := modeled{
		Topology: s.Topology, Shards: s.Shards, Members: len(s.Members),
		Loop: "closed", Sessions: sessionCount, ReadPct: s.ReadPct,
		IntraUs: us(s.Net.IntraRegion), CrossUs: us(s.Net.CrossRegion), LoopbackUs: us(s.Net.Loopback),
		Jitter: s.Net.Jitter, FsyncUs: us(s.Fsync),
		HeartbeatMs: float64(s.Raft.HeartbeatInterval) / float64(time.Millisecond),
		ElectTicks:  s.Raft.ElectionTimeoutTicks,
		ValueBytes:  valueSize, Keys: keyCount,
	}
	if s.Failover {
		m.Loop, m.Sessions = "open", 1
		m.ProbeEvery = float64(probeInterval) / float64(time.Millisecond)
	}
	return m
}
