package main

import (
	"runtime"
	"time"

	"myraft/internal/cluster"
	"myraft/internal/multiraft"
	"myraft/internal/raft"
	"myraft/internal/trace"
)

// sampleFollowers polls, every 100 ms until stop closes, the apply lag of
// every MySQL member that is not its shard's leader, and the heap in use.
func sampleFollowers(rt *multiraft.Runtime, stop <-chan struct{}) (lags []float64, heapInuseMax uint64) {
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return lags, heapInuseMax
		case <-tick.C:
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heapInuseMax = max(heapInuseMax, ms.HeapInuse)
		for _, ring := range rings(rt) {
			for _, m := range ring.Members() {
				node, srv, up := ring.MySQLStack(m.Spec.ID)
				if up && node.Status().Role != raft.RoleLeader {
					lags = append(lags, float64(srv.ApplyStatus().Lag))
				}
			}
		}
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// stageMedians returns each write-path stage's median over the members
// that observed it: the shard leaders for the five primary stages and
// engine commit, the replicas for apply. With several shards the medians
// are averaged.
func stageMedians(rt *multiraft.Runtime) (p50us map[trace.Stage]float64, samples map[trace.Stage]int) {
	sum := make(map[trace.Stage]float64)
	n := make(map[trace.Stage]int)
	samples = make(map[trace.Stage]int)
	for _, ring := range rings(rt) {
		leader := ring.Leader()
		for _, m := range ring.Members() {
			if m.Spec.Kind != cluster.KindMySQL || m.IsDown() {
				continue
			}
			isLeader := leader != nil && leader.Spec.ID == m.Spec.ID
			for st, s := range m.Tracer().StageSummaries() {
				if s.Count == 0 || isLeader == (st == trace.StageApply) {
					continue
				}
				sum[st] += us(s.Median)
				n[st]++
				samples[st] += s.Count
			}
		}
	}
	p50us = make(map[trace.Stage]float64)
	for st, total := range sum {
		p50us[st] = total / float64(n[st])
	}
	return p50us, samples
}

// leaderAppendDurable averages the shard leaders' enqueue-to-durable
// median.
func leaderAppendDurable(rt *multiraft.Runtime) (p50us float64, samples int) {
	var n int
	for _, ring := range rings(rt) {
		if leader := ring.Leader(); leader != nil && leader.Node() != nil {
			s := leader.Node().DurabilityStats().AppendDurable
			p50us += us(s.Median)
			samples += s.Count
			n++
		}
	}
	return ratio(p50us, float64(n)), samples
}

// leaderNodes counts the nodes that lead at least one shard.
func leaderNodes(rt *multiraft.Runtime) int {
	n := 0
	for _, shards := range rt.LeadersByNode() {
		if len(shards) > 0 {
			n++
		}
	}
	return n
}

// commonMetrics fills the end-to-end metrics every workload shares from
// the op count, the write latencies and the counter readings around the
// measured phase.
func commonMetrics(vs valueSet, dl counters, ops int64, writes []sample) {
	secs := dl.elapsed.Seconds()
	n := int(ops)
	vs.set("tput_ops_s", ratio(float64(ops), secs), n)
	p50, _ := windowedPercentile(writes, 50)
	p95, fewest := windowedPercentile(writes, tailPercentile)
	vs.set("write_p50_us", p50, len(writes))
	// The count beside the tail is that of the smallest window it was
	// taken from, which is what decides whether the window supports it.
	vs.set("write_p95_us", p95, fewest)
	vs.set("allocs_per_op", ratio(dl.mallocs, float64(ops)), n)
	vs.set("alloc_bytes_per_op", ratio(dl.allocBytes, float64(ops)), n)
}

// processAndTransport fills the per-layer metrics that come from the
// process and the shared network, which survive member restarts.
func processAndTransport(vs valueSet, dl counters, ops int64) {
	secs := dl.elapsed.Seconds()
	n := int(ops)
	vs.set("transport.msgs_per_op", ratio(dl.netMsgs, float64(ops)), n)
	vs.set("transport.bytes_per_op", ratio(dl.netBytes, float64(ops)), n)
	vs.set("transport.xregion_bytes_per_op", ratio(dl.netXRegionBytes, float64(ops)), n)
	vs.set("transport.dropped", dl.netDropped, n)
	vs.set("process.cpu_us_per_op", ratio(dl.cpuNs/1e3, float64(ops)), n)
	vs.set("process.gc_pause_ms_per_s", ratio(dl.gcPauseNs/1e6, secs), n)
}

// wholeRunP99 reports the write p99 over the whole measured phase. It is
// per-layer (report-only) because it does not repeat from run to run the
// way the windowed p95 does.
func wholeRunP99(vs valueSet, writes []sample) {
	all := sortedMicros(durations(writes))
	if highestPercentile(len(all)) >= 99 {
		vs.set("client.write_p99_us", quantile(all, 99), len(all))
	}
}

// windowedPercentile takes the percentile of each window's samples, in
// microseconds, and returns the median over the windows together with the
// size of the smallest window. The last window is left out when it holds
// less than half of what the first does (probes still fall due while the
// failover driver winds down).
func windowedPercentile(samples []sample, p float64) (value float64, fewest int) {
	byWindow := make(map[int][]time.Duration)
	last := 0
	for _, s := range samples {
		byWindow[s.w] = append(byWindow[s.w], s.d)
		last = max(last, s.w)
	}
	if len(byWindow) > 1 && 2*len(byWindow[last]) < len(byWindow[0]) {
		delete(byWindow, last)
	}
	var per []float64
	for _, ds := range byWindow {
		per = append(per, quantile(sortedMicros(ds), p))
		if fewest == 0 || len(ds) < fewest {
			fewest = len(ds)
		}
	}
	return median(per), fewest
}

func durations(samples []sample) []time.Duration {
	out := make([]time.Duration, len(samples))
	for i, s := range samples {
		out[i] = s.d
	}
	return out
}

// steadyMetrics turns a steady run's outcome into its metrics.
func steadyMetrics(s spec, rt *multiraft.Runtime, o steadyOutcome) (e2e, layer valueSet) {
	e2e, layer = make(valueSet), make(valueSet)
	var ops int64
	var opsTraced, opsUntraced float64
	for _, samples := range o.lat {
		ops += int64(len(samples))
		for _, sm := range samples {
			if sm.w%2 == 0 {
				opsTraced++
			} else {
				opsUntraced++
			}
		}
	}
	writes := float64(len(o.lat[opWrite]))
	dl := o.after.minus(o.before)
	commonMetrics(e2e, dl, ops, o.lat[opWrite])
	processAndTransport(layer, dl, ops)
	wholeRunP99(layer, o.lat[opWrite])

	secs := dl.elapsed.Seconds()
	nw := int(writes)
	leaders := float64(s.Shards)
	busyPct := func(ns float64) float64 { return ratio(ns/1e9*100, secs*leaders) }

	groups := dl.groups
	layer.set("mysql.pipeline_group_size_mean", ratio(dl.txns, groups), int(groups))
	layer.set("mysql.pipeline_flush_busy_pct", busyPct(dl.flushBusy), int(groups))
	layer.set("mysql.pipeline_quorum_busy_pct", busyPct(dl.quorumBusy), int(groups))
	layer.set("mysql.pipeline_engine_busy_pct", busyPct(dl.engineBusy), int(groups))
	layer.set("mysql.engine_syncs_per_op", ratio(dl.engineSyncs, writes), nw)
	layer.set("mysql.syncs_coalesced_per_op", ratio(dl.syncsCoalesced, writes), nw)
	tracked := dl.applyTracked
	layer.set("mysql.apply_fallback_rate", ratio(dl.applyFallbacks, tracked), int(tracked))
	if len(o.lagSamples) > 0 {
		lags := sortedCopy(o.lagSamples)
		layer.set("mysql.apply_lag_p50_entries", quantile(lags, 50), len(lags))
		layer.set("mysql.apply_lag_max_entries", lags[len(lags)-1], len(lags))
	}

	fsyncs := dl.raftFsyncs
	layer.set("raft.fsyncs_per_op", ratio(fsyncs, writes), nw)
	layer.set("raft.fsync_batch_mean", ratio(dl.binlogAppends, fsyncs), int(fsyncs))
	p50, n := leaderAppendDurable(rt)
	layer.set("raft.append_durable_p50_us", p50, n)
	layer.set("raft.loop_blocked_pct", busyPct(dl.loopBlockedNs), nw)

	flushes := dl.sgSyncs
	layer.set("multiraft.syncgroup_reqs_per_flush", ratio(dl.sgRequests, flushes), int(flushes))
	layer.set("multiraft.stale_rejects", dl.staleRejects, nw)
	layer.set("multiraft.fence_waits", dl.fenceWaits, nw)

	hb := dl.hbFlushes
	intervals := secs / s.Raft.HeartbeatInterval.Seconds()
	pairs := float64(leaderNodes(rt) * (len(s.Members) - 1))
	layer.set("transport.hb_msgs_per_peer_interval", ratio(hb, pairs*intervals), int(hb))
	layer.set("transport.hb_fanout", ratio(dl.hbItems, hb), int(hb))

	// Binlog figures are per copy of the log: summed over members, then
	// divided by the member count.
	members := float64(len(s.Members))
	logBytes := dl.binlogBytes / members
	layer.set("binlog.bytes_per_op", ratio(logBytes, writes), nw)
	layer.set("binlog.write_amp", ratio(logBytes, writes*float64(len(keyName(0))+valueSize)), nw)
	layer.set("binlog.syncs_per_op", ratio(dl.binlogSyncs, writes), nw)

	var reads int
	for k := opReadLin; k < numOpKinds; k++ {
		reads += len(o.lat[k])
	}
	layer.set("readpath.tput_ops_s", ratio(float64(reads), secs), reads)
	lin := sortedMicros(durations(o.lat[opReadLin]))
	layer.set("readpath.lin_p50_us", quantile(lin, 50), len(lin))
	layer.set("readpath.lin_p99_us", quantile(lin, 99), len(lin))
	layer.set("readpath.lease_p50_us", quantile(sortedMicros(durations(o.lat[opReadLease])), 50), len(o.lat[opReadLease]))
	layer.set("readpath.session_p50_us", quantile(sortedMicros(durations(o.lat[opReadSession])), 50), len(o.lat[opReadSession]))

	layer.set("process.heap_inuse_mb_max", float64(o.heapInuseMax)/(1<<20), len(o.lagSamples))

	if o.traced {
		stages, counts := stageMedians(rt)
		var sum float64
		for _, st := range trace.Stages() {
			layer.set("trace.stage_"+st.String()+"_p50_us", stages[st], counts[st])
			sum += stages[st]
		}
		layer.set("trace.stage_sum_over_write_p50", ratio(sum, e2e["write_p50_us"].Value), nw)
		// Even windows ran with the program's tracer on, odd ones with it
		// off; with an odd count of windows the traced side ran one more.
		on := opsTraced / float64((o.windows+1)/2)
		off := ratio(opsUntraced, float64(o.windows/2))
		layer.set("trace.overhead_pct", ratio(off-on, off)*100, int(ops))
	}
	return e2e, layer
}

// failoverMetrics turns a failover run's outcome into its metrics. The
// member-level counts restart with every crashed member, so only the
// process, the network and the failover layer report here.
func failoverMetrics(o failoverOutcome) (e2e, layer valueSet) {
	e2e, layer = make(valueSet), make(valueSet)
	acked := int64(len(o.lat))
	dl := o.after.minus(o.before)
	commonMetrics(e2e, dl, acked, o.lat)
	processAndTransport(layer, dl, acked)
	wholeRunP99(layer, o.lat)

	layer.set("failover.crash_downtime_p50_ms", quantile(sortedMicros(o.crashDown), 50)/1000, len(o.crashDown))
	layer.set("failover.promotion_downtime_p50_ms", quantile(sortedMicros(o.transferDown), 50)/1000, len(o.transferDown))
	layer.set("failover.unavailable_probe_pct", ratio(float64(o.refusedFirst), float64(o.issued))*100, int(o.issued))
	layer.set("failover.probe_late_p99_us", quantile(sortedMicros(o.late), 99), len(o.late))
	layer.set("failover.trials", float64(len(o.crashDown)+len(o.transferDown)), len(o.crashDown)+len(o.transferDown))
	layer.set("failover.transfer_retries", float64(o.transferRetries), len(o.transferDown))
	var bumps float64
	for _, b := range o.termBumps {
		bumps += b
	}
	layer.set("raft.term_bumps_per_failover", ratio(bumps, float64(len(o.termBumps))), len(o.termBumps))
	return e2e, layer
}
