// Package experiments implements the reproduction harness for every table
// and figure in the paper's evaluation (§6), plus the ablations called
// out in DESIGN.md. Each experiment builds the paper's topology — a
// primary region and follower regions each holding one MySQL and two
// logtailers, plus learners — on the simulated WAN, runs the paper's
// workload against the MyRaft stack and/or the semi-sync baseline, and
// returns the measured distributions.
//
// Protocol timings default to the paper's production values (500ms
// heartbeats, three missed beats to elect, ~10ms client RTT, tens-of-ms
// cross-region links, tens-of-seconds baseline detection timeouts). A
// Scale factor divides every duration so that a 59-second baseline
// failover can be measured in about a second of wall time; reported
// numbers are scaled back to paper units. Ratios — the 24× failover and
// 4× promotion headlines — are scale-invariant.
package experiments

import (
	"fmt"
	"time"

	"myraft/internal/automation"
	"myraft/internal/cluster"
	"myraft/internal/quorum"
	"myraft/internal/raft"
	"myraft/internal/semisync"
	"myraft/internal/transport"
	"myraft/internal/wire"
)

// Params configures an experiment run.
type Params struct {
	// Scale divides every protocol duration (default 1: real time).
	Scale float64
	// Trials is the number of repetitions for downtime experiments.
	Trials int
	// Duration is the workload duration for latency/throughput
	// experiments (already in real, scaled time).
	Duration time.Duration
	// Clients is the workload concurrency.
	Clients int
	// FollowerRegions is the number of remote regions with a failover
	// replica + two logtailers (the paper's A/B test uses 5).
	FollowerRegions int
	// Learners is the number of non-voting replicas (the paper uses 2).
	Learners int
	// Proxying enables the region-proxy replication topology.
	Proxying bool
	// Dir is the state root; a temp dir is created when empty.
	Dir string
}

func (p Params) withDefaults() Params {
	if p.Scale == 0 {
		p.Scale = 1
	}
	if p.Trials == 0 {
		p.Trials = 10
	}
	if p.Duration == 0 {
		p.Duration = 3 * time.Second
	}
	if p.Clients == 0 {
		p.Clients = 8
	}
	if p.FollowerRegions == 0 {
		p.FollowerRegions = 5
	}
	return p
}

// scaled divides a paper-unit duration by the scale factor.
func (p Params) scaled(d time.Duration) time.Duration {
	return time.Duration(float64(d) / p.Scale)
}

// unscaled converts a measured (scaled) duration back to paper units.
func (p Params) unscaled(d time.Duration) time.Duration {
	return time.Duration(float64(d) * p.Scale)
}

// Unscaled converts a measured (scaled) duration back to paper units.
func (p Params) Unscaled(d time.Duration) time.Duration { return p.unscaled(d) }

// Paper-production protocol constants (§6).
const (
	paperHeartbeat     = 500 * time.Millisecond // §6.2: 500ms heartbeats
	paperClientRTT     = 10 * time.Millisecond  // §6.1: ~10ms client→primary
	paperIntraRegion   = 150 * time.Microsecond
	paperCrossRegion   = 30 * time.Millisecond
	paperPingInterval  = 1 * time.Second  // baseline automation health checks
	paperDetection     = 45 * time.Second // baseline conservative dead-primary detection
	paperStepDelay     = 100 * time.Millisecond
	paperProbeInterval = 25 * time.Millisecond // downtime prober cadence
)

// netConfig builds the scaled WAN model.
func (p Params) netConfig() transport.Config {
	return transport.Config{
		IntraRegion: paperIntraRegion, // latency floor: not scaled below realism
		CrossRegion: p.scaled(paperCrossRegion),
		Loopback:    5 * time.Microsecond,
		Jitter:      0.05,
	}
}

// raftConfig builds the scaled MyRaft node config.
func (p Params) raftConfig() raft.Config {
	cfg := raft.Config{
		HeartbeatInterval:    p.scaled(paperHeartbeat),
		ElectionTimeoutTicks: 3, // three missed heartbeats (§6.2)
		Strategy:             quorum.SingleRegionDynamic{},
	}
	if p.Proxying {
		cfg.Route = raft.RegionProxyRoute
	}
	return cfg
}

// automationConfig builds the scaled baseline control plane config.
func (p Params) automationConfig() automation.Config {
	return automation.Config{
		PingInterval:     p.scaled(paperPingInterval),
		DetectionTimeout: p.scaled(paperDetection),
		StepDelay:        p.scaled(paperStepDelay),
	}
}

// clientRTT returns the scaled client↔primary round trip.
func (p Params) clientRTT() time.Duration { return p.scaled(paperClientRTT) }

// probeInterval returns the scaled downtime probe cadence.
func (p Params) probeInterval() time.Duration {
	d := p.scaled(paperProbeInterval)
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// baselineSpecs mirrors cluster.PaperTopology for the semi-sync stack.
func baselineSpecs(followerRegions, learners int) []semisync.NodeSpec {
	var specs []semisync.NodeSpec
	for _, ms := range cluster.PaperTopology(followerRegions, learners) {
		kind := semisync.KindMySQL
		if ms.Kind == cluster.KindLogtailer {
			kind = semisync.KindLogtailer
		}
		specs = append(specs, semisync.NodeSpec{ID: ms.ID, Region: ms.Region, Kind: kind})
	}
	return specs
}

// mysqlVoterIDs lists the primary-capable members of the paper topology.
func mysqlVoterIDs(followerRegions int) []wire.NodeID {
	out := []wire.NodeID{"mysql-0"}
	for r := 1; r <= followerRegions; r++ {
		out = append(out, wire.NodeID(fmt.Sprintf("mysql-%d", r)))
	}
	return out
}
