package main

// metricDef is one named metric of the benchmark. Bound is the share of
// the parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a client of the system sees. Every workload reports
// every one of them, from a run with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"tput_ops_s", "ops/s", higher, 0.15},
	{"write_p50_us", "us", lower, 0.15},
	{"write_p95_us", "us", lower, 0.20},
	{"allocs_per_op", "count", lower, 0.10},
	{"alloc_bytes_per_op", "B", lower, 0.10},
}

// setupFloorS is the absolute part of setup_s's bound used by -compare:
// set-up regresses only when it is worse by more than its relative bound
// and by more than this many seconds.
const setupFloorS = 0.25

// perLayer is reported by the traced run. A workload that does not
// exercise a metric reports 0 for it.
var perLayer = []metricDef{
	// Counts from the program's public status APIs over the measured phase.
	{Name: "mysql.pipeline_group_size_mean", Unit: "txn", Better: higher},
	{Name: "mysql.pipeline_flush_busy_pct", Unit: "%", Better: lower},
	{Name: "mysql.pipeline_quorum_busy_pct", Unit: "%", Better: lower},
	{Name: "mysql.pipeline_engine_busy_pct", Unit: "%", Better: lower},
	{Name: "mysql.engine_syncs_per_op", Unit: "count", Better: lower},
	{Name: "mysql.syncs_coalesced_per_op", Unit: "count", Better: higher},
	{Name: "mysql.apply_lag_p50_entries", Unit: "count", Better: lower},
	{Name: "mysql.apply_lag_max_entries", Unit: "count", Better: lower},
	{Name: "mysql.apply_fallback_rate", Unit: "ratio", Better: lower},
	{Name: "raft.fsyncs_per_op", Unit: "count", Better: lower},
	{Name: "raft.fsync_batch_mean", Unit: "count", Better: higher},
	{Name: "raft.append_durable_p50_us", Unit: "us", Better: lower},
	{Name: "raft.loop_blocked_pct", Unit: "%", Better: lower},
	{Name: "raft.term_bumps_per_failover", Unit: "count", Better: lower},
	{Name: "multiraft.syncgroup_reqs_per_flush", Unit: "count", Better: higher},
	{Name: "multiraft.stale_rejects", Unit: "count", Better: lower},
	{Name: "multiraft.fence_waits", Unit: "count", Better: lower},
	{Name: "transport.msgs_per_op", Unit: "count", Better: lower},
	{Name: "transport.bytes_per_op", Unit: "B", Better: lower},
	{Name: "transport.xregion_bytes_per_op", Unit: "B", Better: lower},
	{Name: "transport.dropped", Unit: "count", Better: lower},
	{Name: "transport.hb_msgs_per_peer_interval", Unit: "count", Better: lower},
	{Name: "transport.hb_fanout", Unit: "count", Better: higher},
	{Name: "binlog.bytes_per_op", Unit: "B", Better: lower},
	{Name: "binlog.write_amp", Unit: "ratio", Better: lower},
	{Name: "binlog.syncs_per_op", Unit: "count", Better: lower},
	{Name: "client.write_p99_us", Unit: "us", Better: lower},
	{Name: "readpath.tput_ops_s", Unit: "ops/s", Better: higher},
	{Name: "readpath.lin_p50_us", Unit: "us", Better: lower},
	{Name: "readpath.lin_p99_us", Unit: "us", Better: lower},
	{Name: "readpath.lease_p50_us", Unit: "us", Better: lower},
	{Name: "readpath.session_p50_us", Unit: "us", Better: lower},
	{Name: "failover.crash_downtime_p50_ms", Unit: "ms", Better: lower},
	{Name: "failover.promotion_downtime_p50_ms", Unit: "ms", Better: lower},
	{Name: "failover.unavailable_probe_pct", Unit: "%", Better: lower},
	{Name: "failover.probe_late_p99_us", Unit: "us", Better: lower},
	{Name: "failover.trials", Unit: "count", Better: higher},
	{Name: "failover.transfer_retries", Unit: "count", Better: lower},
	{Name: "trace.stage_propose_p50_us", Unit: "us", Better: lower},
	{Name: "trace.stage_append_p50_us", Unit: "us", Better: lower},
	{Name: "trace.stage_fsync_p50_us", Unit: "us", Better: lower},
	{Name: "trace.stage_replicate_p50_us", Unit: "us", Better: lower},
	{Name: "trace.stage_commit_p50_us", Unit: "us", Better: lower},
	{Name: "trace.stage_apply_p50_us", Unit: "us", Better: lower},
	{Name: "trace.stage_engine_commit_p50_us", Unit: "us", Better: lower},
	{Name: "trace.stage_sum_over_write_p50", Unit: "ratio", Better: lower},
	{Name: "trace.overhead_pct", Unit: "%", Better: lower},
	{Name: "process.cpu_us_per_op", Unit: "us", Better: lower},
	{Name: "process.gc_pause_ms_per_s", Unit: "ms/s", Better: lower},
	{Name: "process.heap_inuse_mb_max", Unit: "MB", Better: lower},

	// Timed from outside by bench/layers: a loop over each layer's
	// exported calls at the workload's value size and observed group size.
	{Name: "wire.marshal_append_ns_per_entry", Unit: "ns", Better: lower},
	{Name: "wire.marshal_append_allocs_per_entry", Unit: "count", Better: lower},
	{Name: "wire.unmarshal_append_ns_per_entry", Unit: "ns", Better: lower},
	{Name: "wire.unmarshal_append_allocs_per_entry", Unit: "count", Better: lower},
	{Name: "wire.append_frame_bytes_per_entry", Unit: "B", Better: lower},
	{Name: "transport.inproc_send_ns", Unit: "ns", Better: lower},
	{Name: "transport.inproc_send_allocs", Unit: "count", Better: lower},
	{Name: "transport.tcp_rtt_p50_us", Unit: "us", Better: lower},
	{Name: "transport.tcp_send_allocs", Unit: "count", Better: lower},
	{Name: "binlog.append_ns_per_entry", Unit: "ns", Better: lower},
	{Name: "binlog.append_allocs_per_entry", Unit: "count", Better: lower},
	{Name: "binlog.entries_read_ns_per_entry", Unit: "ns", Better: lower},
	{Name: "binlog.sync_ns", Unit: "ns", Better: lower},
	{Name: "logstore.append_ns_per_entry", Unit: "ns", Better: lower},
	{Name: "logstore.append_allocs_per_entry", Unit: "count", Better: lower},
	{Name: "storage.prepare_ns", Unit: "ns", Better: lower},
	{Name: "storage.commit_ns", Unit: "ns", Better: lower},
	{Name: "storage.txn_allocs", Unit: "count", Better: lower},
	{Name: "storage.get_ns", Unit: "ns", Better: lower},
	{Name: "storage.payload_encode_ns", Unit: "ns", Better: lower},
	{Name: "storage.payload_decode_ns", Unit: "ns", Better: lower},
	{Name: "raft.propose_batch_ns_per_entry", Unit: "ns", Better: lower},
	{Name: "raft.propose_batch_allocs_per_entry", Unit: "count", Better: lower},
	{Name: "multiraft.router_lookup_ns", Unit: "ns", Better: lower},
	{Name: "gtid.set_add_ns", Unit: "ns", Better: lower},
	{Name: "metrics.observe_ns", Unit: "ns", Better: lower},
	{Name: "trace.span_ns", Unit: "ns", Better: lower},
}

// value is one reported number with the count of samples behind it.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// valueSet collects a run's metrics by name.
type valueSet map[string]value

func (vs valueSet) set(name string, v float64, samples int) {
	vs[name] = value{Value: v, Samples: samples}
}

// shaped returns the values of defs in order, with units filled in and 0
// for the ones the workload did not produce.
func (vs valueSet) shaped(defs []metricDef) valueSet {
	out := make(valueSet, len(defs))
	for _, d := range defs {
		v := vs[d.Name]
		v.Unit = d.Unit
		out[d.Name] = v
	}
	return out
}
