package cluster

// observability.go assembles each member's status from its layers' own
// snapshot types. That one value is what GET /status serves and what a
// scrape publishes into the member's metrics registry (metrics.Walk over
// its `metric` tags), so every signal is declared once, on the type that
// owns it, and read at scrape time rather than as of a background tick.
// The write-path stage histograms stream into the same registry
// continuously (internal/trace).

import (
	"myraft/internal/binlog"
	"myraft/internal/metrics"
	"myraft/internal/mysql"
	"myraft/internal/raft"
	"myraft/internal/trace"
	"myraft/internal/wire"
)

// MemberStatus is one member's externally visible state. Each block is
// its layer's snapshot type; a block the member does not have (raft
// state while down, applier and commit pipeline on a logtailer) is nil.
type MemberStatus struct {
	ID     wire.NodeID `json:"id"`
	Region wire.Region `json:"region"`
	Kind   string      `json:"kind"`
	Down   bool        `json:"down"`
	// Status is the raft node's state; its keys sit inline in the member.
	*raft.Status
	ReadOnly    *bool             `json:"read_only,omitempty"`
	GTIDs       string            `json:"gtid_executed,omitempty"`
	BinlogFiles []binlog.FileInfo `json:"binlog_files,omitempty"`
	// BinlogBytes is the on-disk size of the member's binlog inventory,
	// the number the purge coordinator exists to bound.
	BinlogBytes int64 `json:"binlog_bytes,omitempty"`
	// Binlog is the log's I/O counters, published as metrics only.
	Binlog *binlog.Stats `json:"-"`
	// Snapshots reports snapshot-transfer activity (leader-side chunks
	// and bytes sent, follower-side installs) when any occurred.
	Snapshots *raft.SnapshotStats `json:"snapshots,omitempty"`
	// Durability reports the async log writer's pipeline state: how far
	// fsync has progressed, how it is batching, and how far acks lag
	// appends (§3.4 group commit observability).
	Durability *raft.DurabilityStats `json:"durability,omitempty"`
	// Apply reports the replica applier's progress and parallel-apply
	// scheduling outcomes (§3.5): apply lag, worker occupancy, and how
	// often writeset tracking fell back to serial ordering.
	Apply *mysql.ApplyStatus `json:"apply,omitempty"`
	// Pipeline reports the primary commit pipeline's overlap state
	// (§3.4): in-flight groups, group-size distribution, per-stage busy
	// time and engine sync coalescing.
	Pipeline *mysql.PipelineStatus `json:"pipeline,omitempty"`
}

// Status snapshots the member across its layers.
func (m *Member) Status() MemberStatus {
	node, srv, tailer := m.node, m.server, m.tailer
	ms := MemberStatus{ID: m.Spec.ID, Region: m.Spec.Region, Kind: "mysql", Down: m.down}
	if m.Spec.Kind == KindLogtailer {
		ms.Kind = "logtailer"
	}
	if node != nil {
		st, ds := node.Status(), node.DurabilityStats()
		ms.Status, ms.Durability = &st, &ds
		if ss := node.SnapshotStats(); ss != (raft.SnapshotStats{}) {
			ms.Snapshots = &ss
		}
	}
	var log *binlog.Log
	switch {
	case srv != nil:
		ro := srv.IsReadOnly()
		ms.ReadOnly = &ro
		ms.GTIDs = srv.GTIDExecuted().String()
		as, ps := srv.ApplyStatus(), srv.PipelineStatus()
		ms.Apply, ms.Pipeline = &as, &ps
		ms.BinlogFiles = srv.BinlogFiles()
		for _, f := range ms.BinlogFiles {
			ms.BinlogBytes += f.Size
		}
		log = srv.Log()
	case tailer != nil:
		log = tailer.Log()
	}
	if log != nil {
		ls := log.Stats()
		ms.Binlog = &ls
	}
	return ms
}

// MemberRegistry is one up member's refreshed instrument registry, ready
// for a Prometheus render under a member label.
type MemberRegistry struct {
	ID     wire.NodeID
	Reg    *metrics.Registry
	Tracer *trace.Tracer
}

// MemberRegistries publishes every up member's status into its registry
// and returns the registries, in spec order. Crashed members are
// skipped: their registries (and trace histories) survive and reappear
// on restart.
func (c *Cluster) MemberRegistries() []MemberRegistry {
	c.mu.RLock()
	live := make([]*Member, 0, len(c.specs))
	for _, s := range c.specs {
		if m := c.members[s.ID]; m != nil && !m.down && m.node != nil && m.reg != nil {
			live = append(live, m)
		}
	}
	c.mu.RUnlock()

	out := make([]MemberRegistry, 0, len(live))
	for _, m := range live {
		if st := m.Status(); st.Status != nil {
			m.reg.Publish(st)
			var leading int64
			if st.Role == raft.RoleLeader {
				leading = 1
			}
			m.reg.Gauge("raft_is_leader").Set(leading)
			m.reg.Gauge("raft_last_index").Set(int64(st.LastOpID.Index))
		}
		out = append(out, MemberRegistry{ID: m.Spec.ID, Reg: m.reg, Tracer: m.tracer})
	}
	return out
}
