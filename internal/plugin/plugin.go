// Package plugin implements mysql_raft_repl (§3.1): the glue between the
// MySQL server and the Raft consensus core. It plays three roles at once:
//
//   - It specializes Raft's log abstraction over the MySQL binary log, so
//     the consensus layer can read and write transactions without knowing
//     the binlog format (raft.LogStore).
//   - It implements the callback API from Raft into MySQL, orchestrating
//     the promotion and demotion step sequences of §3.3 (raft.Callbacks).
//   - It gives the MySQL commit pipeline its consensus operations
//     (mysql.Replicator).
package plugin

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"myraft/internal/discovery"
	"myraft/internal/gtid"
	"myraft/internal/logstore"
	"myraft/internal/mysql"
	"myraft/internal/opid"
	"myraft/internal/raft"
	"myraft/internal/wire"
)

// Plugin wires one MySQL server into one Raft node.
type Plugin struct {
	server     *mysql.Server
	replicaset string
	registry   *discovery.Registry

	mu   sync.Mutex
	node *raft.Node
	// roleTerm is the highest term whose role orchestration has started;
	// stale orchestration (a promotion overtaken by a newer demotion)
	// must not flip the write gate afterwards.
	roleTerm uint64

	// PromotionTimeout bounds the promotion orchestration (catch-up can
	// take a while on a lagging member).
	PromotionTimeout time.Duration
}

// New creates the plugin for a server. registry may be nil when no
// service discovery is wired (unit tests).
func New(server *mysql.Server, replicaset string, registry *discovery.Registry) *Plugin {
	return &Plugin{
		server:           server,
		replicaset:       replicaset,
		registry:         registry,
		PromotionTimeout: time.Minute,
	}
}

// AttachNode connects the Raft node and registers the plugin as the
// server's replicator. Call once after raft.NewNode.
func (p *Plugin) AttachNode(n *raft.Node) {
	p.mu.Lock()
	p.node = n
	p.mu.Unlock()
	p.server.AttachReplicator(p)
}

// Node returns the attached Raft node.
func (p *Plugin) Node() *raft.Node {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.node
}

// Server returns the attached MySQL server.
func (p *Plugin) Server() *mysql.Server { return p.server }

// --- raft.LogStore: the binlog-specialized log abstraction (§3.1) ---

// logStore returns the binlog-backed LogStore view shared with
// logtailers.
func (p *Plugin) logStore() logstore.BinlogStore {
	return logstore.BinlogStore{Log: p.server.Log()}
}

// Append implements raft.LogStore: every log write — leader binlog or
// follower relay-log — goes through the plugin (§3.2).
func (p *Plugin) Append(e *wire.LogEntry) error { return p.logStore().Append(e) }

// Entry implements raft.LogStore, including the historical-file parse
// path used when a lagging follower needs entries beyond the in-memory
// cache (§3.1).
func (p *Plugin) Entry(index uint64) (*wire.LogEntry, error) { return p.logStore().Entry(index) }

// LastOpID implements raft.LogStore.
func (p *Plugin) LastOpID() opid.OpID { return p.logStore().LastOpID() }

// FirstIndex implements raft.LogStore.
func (p *Plugin) FirstIndex() uint64 { return p.logStore().FirstIndex() }

// TruncateAfter implements raft.LogStore. The binlog removes the
// truncated transactions' GTIDs from all GTID metadata as part of the
// truncation (§3.3 demotion step 4).
func (p *Plugin) TruncateAfter(index uint64) ([]*wire.LogEntry, error) {
	// Invariant check: consensus-committed entries are never truncated,
	// so nothing at or below the engine's commit cursor may be removed.
	// A violation here means an election-safety bug upstream; scream.
	if cursor := p.server.Engine().LastCommitted(); cursor.Index > index {
		fmt.Fprintf(os.Stderr, "UNSAFE TRUNCATE on %s: truncating to %d but engine committed through %v\n",
			p.server.ID(), index, cursor)
	}
	return p.logStore().TruncateAfter(index)
}

// Sync implements raft.LogStore.
func (p *Plugin) Sync() error { return p.logStore().Sync() }

// ScanFrom streams entries sequentially (file-by-file) for fast recovery
// scans; the raft node detects and prefers it over per-entry reads.
func (p *Plugin) ScanFrom(from uint64, fn func(*wire.LogEntry) bool) error {
	return p.logStore().ScanFrom(from, fn)
}

// --- raft.Callbacks: role orchestration (§3.3) ---

// OnPromote runs the replica -> primary transition. Raft has already
// appended the No-Op (step 1); the plugin catches MySQL up (step 2),
// rewires logs (step 3), enables writes (step 4) and publishes discovery
// (step 5).
func (p *Plugin) OnPromote(info raft.PromoteInfo) {
	p.mu.Lock()
	if info.Term < p.roleTerm {
		p.mu.Unlock()
		return // stale promotion
	}
	p.roleTerm = info.Term
	node := p.node
	p.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), p.PromotionTimeout)
	defer cancel()
	if err := p.server.PromoteToPrimary(ctx, info.NoOpIndex); err != nil {
		return // a newer demotion or a failure will re-converge the role
	}
	// Re-verify leadership before opening the write gate: a newer term
	// may have demoted us while we were catching up.
	p.mu.Lock()
	stale := info.Term < p.roleTerm
	p.mu.Unlock()
	if stale {
		return
	}
	if node != nil {
		st := node.Status()
		if st.Role != raft.RoleLeader || st.Term != info.Term {
			return
		}
	}
	p.server.EnableWrites()
	if p.registry != nil {
		p.registry.PublishPrimary(p.replicaset, p.server.ID())
	}
}

// OnDemote runs the primary -> replica transition of §3.3: abort
// in-flight transactions, disable writes, rewire logs, restart the
// applier. (Log truncation, when needed, arrives separately through
// TruncateAfter as the new leader's stream overwrites the tail.)
func (p *Plugin) OnDemote(term uint64) {
	p.mu.Lock()
	if term < p.roleTerm {
		p.mu.Unlock()
		return
	}
	p.roleTerm = term
	p.mu.Unlock()
	_ = p.server.DemoteToReplica()
}

// OnCommitAdvance forwards the consensus commit marker to the applier
// gate (§3.5).
func (p *Plugin) OnCommitAdvance(index uint64) {
	p.server.OnCommitAdvance(index)
}

// OnMembershipChange implements raft.Callbacks; membership is fully
// handled inside Raft, so MySQL only needs it for observability.
func (p *Plugin) OnMembershipChange(wire.Config) {}

// --- mysql.Replicator: consensus operations for the commit pipeline ---

// ProposeTransaction implements mysql.Replicator.
func (p *Plugin) ProposeTransaction(payload []byte, g gtid.GTID) (opid.OpID, error) {
	n := p.Node()
	if n == nil {
		return opid.Zero, fmt.Errorf("plugin: no raft node attached")
	}
	return n.Propose(payload, g, true)
}

// ProposeTransactionBatch implements mysql.Replicator: the whole commit
// group crosses into the raft event loop in one post instead of one per
// transaction.
func (p *Plugin) ProposeTransactionBatch(reqs []mysql.TxnProposal) ([]opid.OpID, error) {
	n := p.Node()
	if n == nil {
		return nil, fmt.Errorf("plugin: no raft node attached")
	}
	batch := make([]raft.ProposeReq, len(reqs))
	for i, r := range reqs {
		batch[i] = raft.ProposeReq{Payload: r.Payload, GTID: r.GTID, HasGTID: true}
	}
	return n.ProposeBatch(batch)
}

// ProposeRotate implements mysql.Replicator (§A.1).
func (p *Plugin) ProposeRotate() (opid.OpID, error) {
	n := p.Node()
	if n == nil {
		return opid.Zero, fmt.Errorf("plugin: no raft node attached")
	}
	return n.ProposeRotate()
}

// WaitCommitted implements mysql.Replicator.
func (p *Plugin) WaitCommitted(ctx context.Context, index uint64) error {
	n := p.Node()
	if n == nil {
		return fmt.Errorf("plugin: no raft node attached")
	}
	return n.WaitCommitted(ctx, index)
}

// WaitDurableCommit implements mysql.Replicator: the commit pipeline
// parks here instead of fsyncing the binlog itself, letting the raft
// node's log writer batch the flush with everything else in its queue.
func (p *Plugin) WaitDurableCommit(ctx context.Context, index uint64) error {
	n := p.Node()
	if n == nil {
		return fmt.Errorf("plugin: no raft node attached")
	}
	return n.WaitDurableCommit(ctx, index)
}

// CommitIndex implements mysql.Replicator.
func (p *Plugin) CommitIndex() uint64 {
	n := p.Node()
	if n == nil {
		return 0
	}
	return n.CommitIndex()
}

// --- raft.SnapshotProvider / raft.SnapshotSink: snapshot catch-up ---

// Snapshot implements raft.SnapshotProvider: it serializes a consistent
// engine checkpoint for streaming to a member whose log position fell
// below the purge floor. Raft calls it off the event loop and caches the
// result, so one checkpoint serves every catching-up peer.
func (p *Plugin) Snapshot() (*raft.Snapshot, error) {
	n := p.Node()
	if n == nil {
		return nil, fmt.Errorf("plugin: no raft node attached")
	}
	cfg := n.Status().Config
	data, anchor, gtids, err := p.server.Checkpoint(wire.EncodeConfig(cfg))
	if err != nil {
		return nil, err
	}
	if anchor.IsZero() {
		return nil, fmt.Errorf("plugin: engine has no committed state to snapshot")
	}
	return &raft.Snapshot{Anchor: anchor, GTIDSet: gtids, Config: cfg, Data: data}, nil
}

// InstallSnapshot implements raft.SnapshotSink: replace the engine state
// with the received checkpoint and reset the binlog at its anchor.
func (p *Plugin) InstallSnapshot(s *raft.Snapshot) error {
	return p.server.InstallCheckpoint(s.Data, s.Anchor, s.GTIDSet)
}

// PurgeSafely purges binlog files below the minimum region watermark, the
// heuristic of §A.1 that prevents purging entries a lagging out-of-region
// member might still request.
func (p *Plugin) PurgeSafely() error {
	n := p.Node()
	if n == nil {
		return fmt.Errorf("plugin: no raft node attached")
	}
	st := n.Status()
	if st.Role != raft.RoleLeader || len(st.RegionWatermarks) == 0 {
		return nil
	}
	min := uint64(0)
	first := true
	for _, w := range st.RegionWatermarks {
		if first || w < min {
			min = w
			first = false
		}
	}
	if min == 0 {
		return nil
	}
	return p.server.PurgeLogsTo(min)
}

// RunLogMaintenance is the §A.1 external automation loop: it monitors the
// primary's active binlog size (SHOW BINARY LOGS) and issues FLUSH BINARY
// LOGS when it exceeds maxBytes, then purges files below the minimum
// region watermark. It only acts while this member is the primary and
// returns when ctx is done.
func (p *Plugin) RunLogMaintenance(ctx context.Context, interval time.Duration, maxBytes int64) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		n := p.Node()
		if n == nil || n.Status().Role != raft.RoleLeader || p.server.IsReadOnly() {
			continue
		}
		files := p.server.BinlogFiles()
		if len(files) > 0 && files[len(files)-1].Size >= maxBytes {
			fctx, cancel := context.WithTimeout(ctx, 30*time.Second)
			_ = p.server.FlushBinaryLogs(fctx)
			cancel()
		}
		_ = p.PurgeSafely()
	}
}

// Interface conformance checks.
var (
	_ raft.LogStore         = (*Plugin)(nil)
	_ raft.Callbacks        = (*Plugin)(nil)
	_ mysql.Replicator      = (*Plugin)(nil)
	_ raft.SnapshotProvider = (*Plugin)(nil)
	_ raft.SnapshotSink     = (*Plugin)(nil)
)
