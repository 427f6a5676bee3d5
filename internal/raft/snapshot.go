package raft

// snapshot.go implements snapshot catch-up for the bounded-log
// lifecycle: once the cluster purges its log prefix, a follower whose
// nextIndex fell below the leader's FirstIndex can no longer be repaired
// by AppendEntries. The leader instead streams an engine checkpoint
// (produced by the configured SnapshotProvider) in resumable chunks; the
// follower installs it through its SnapshotSink — which replaces engine
// state and resets the binlog to start at the snapshot anchor — and then
// resumes normal replication at anchor+1.
//
// Snapshot transfer is always direct leader→target. Proxied (PROXY_OP)
// routes degrade for this path: an intermediate hop would have to buffer
// the entire checkpoint to reconstitute it, defeating the bandwidth
// savings proxying exists for.

import (
	"errors"

	"myraft/internal/metrics"
	"myraft/internal/opid"
	"myraft/internal/wire"
)

// Snapshot is a complete state-machine checkpoint plus the log metadata
// needed to resume replication after installing it. Anchor is the OpID
// of the last log entry the checkpoint covers; GTIDSet is the executed
// set at that point; Config is the membership in force at the anchor;
// Data is the opaque engine checkpoint (internal/storage encoding for
// MySQL members, empty for logtailers).
type Snapshot struct {
	Anchor  opid.OpID
	GTIDSet string
	Config  wire.Config
	Data    []byte
}

// SnapshotProvider produces checkpoints on the leader. It is called off
// the event loop and may take as long as serializing the engine state
// takes; the node caches the result and reuses it for every peer that
// needs catch-up while the log still holds the entries after its anchor.
type SnapshotProvider interface {
	Snapshot() (*Snapshot, error)
}

// SnapshotSink installs a received checkpoint on a follower: replace the
// state machine's contents and reset the log so its next append is
// Anchor.Index+1. Engine state must be replaced before the log is reset,
// so a crash between the two leaves a log the leader simply re-streams
// over (install is idempotent).
type SnapshotSink interface {
	InstallSnapshot(s *Snapshot) error
}

// SnapshotStats counts snapshot-transfer activity on both sides, for
// adminapi /status and the experiment harness.
type SnapshotStats struct {
	// Installs is how many snapshots this node installed (follower side).
	Installs int64 `json:"installs,omitempty"`
	// ChunksSent and BytesSent count outbound transfer volume (leader side).
	ChunksSent int64 `json:"chunks_sent,omitempty"`
	BytesSent  int64 `json:"bytes_sent,omitempty"`
	// Failures counts provider errors, rejected chunks, and failed installs.
	Failures int64 `json:"failures,omitempty"`
}

type snapMetrics struct {
	installs metrics.Counter
	chunks   metrics.Counter
	bytes    metrics.Counter
	failures metrics.Counter
}

// snapRecvState is the follower's in-progress transfer: chunks received
// so far for one anchor. A chunk for a different anchor restarts it.
type snapRecvState struct {
	anchor opid.OpID
	buf    []byte
}

// SnapshotStats snapshots the transfer counters. The counters are
// internally synchronized, so this does not post onto the event loop.
func (n *Node) SnapshotStats() SnapshotStats {
	return SnapshotStats{
		Installs:   n.snapMet.installs.Value(),
		ChunksSent: n.snapMet.chunks.Value(),
		BytesSent:  n.snapMet.bytes.Value(),
		Failures:   n.snapMet.failures.Value(),
	}
}

// NotePurged informs the node that its log store's prefix was purged (the
// cluster purge coordinator calls it after driving a purge). The node
// re-reads FirstIndex and drops a cached leader snapshot that no longer
// meets the log: a checkpoint is only reusable while the log still holds
// every entry after its anchor.
func (n *Node) NotePurged() {
	n.post(func() {
		n.firstIndex = n.log.FirstIndex()
		// The cache must not keep answering for purged entries: a peer
		// below the floor has to take the snapshot path.
		n.cache.dropBelow(n.firstIndex)
		if n.snapCache != nil && n.firstIndex > n.snapCache.Anchor.Index+1 {
			n.snapCache = nil
		}
	})
}

// FirstIndex returns the lowest log index the node retains (0 when the
// log holds no entries).
func (n *Node) FirstIndex() uint64 {
	var idx uint64
	n.post(func() { idx = n.firstIndex })
	return idx
}

// --- leader side ---

// maybeSendSnapshot switches peer to snapshot catch-up when the log can
// no longer repair it with AppendEntries. Returns false when no provider
// is configured (the caller falls back to sending from FirstIndex, the
// pre-compaction behaviour).
func (n *Node) maybeSendSnapshot(peer wire.NodeID, ps *peerState) bool {
	if n.cfg.SnapshotProvider == nil {
		return false
	}
	if n.snapCache != nil && n.firstIndex > n.snapCache.Anchor.Index+1 {
		n.snapCache = nil // stale: purged past its anchor
	}
	ps.snapPending = true
	ps.snapOffset = 0
	if n.snapCache == nil {
		n.fetchSnapshot()
		return true
	}
	n.sendSnapshotChunk(peer, ps)
	return true
}

// tickSnapshot re-drives an in-flight transfer from the heartbeat path;
// re-sending the current chunk doubles as the loss-retry mechanism.
func (n *Node) tickSnapshot(peer wire.NodeID, ps *peerState) {
	if n.snapCache == nil {
		n.fetchSnapshot()
		return
	}
	n.sendSnapshotChunk(peer, ps)
}

// fetchSnapshot asks the provider for a checkpoint off the event loop
// and resumes every waiting peer when it lands. At most one provider
// call runs at a time.
func (n *Node) fetchSnapshot() {
	if n.snapFetching {
		return
	}
	n.snapFetching = true
	term := n.term
	go func() {
		s, err := n.cfg.SnapshotProvider.Snapshot()
		n.post(func() {
			n.snapFetching = false
			if err != nil {
				n.snapMet.failures.Inc()
				for _, ps := range n.peers {
					ps.snapPending = false
				}
				return
			}
			if n.role != RoleLeader || n.term != term {
				return
			}
			n.snapCache = s
			for id, ps := range n.peers {
				if ps.snapPending {
					ps.snapOffset = 0
					n.sendSnapshotChunk(id, ps)
				}
			}
		})
	}()
}

// sendSnapshotChunk transmits the chunk at the peer's transfer cursor.
// Always direct, never proxied.
func (n *Node) sendSnapshotChunk(peer wire.NodeID, ps *peerState) {
	s := n.snapCache
	if s == nil {
		ps.snapPending = false
		return
	}
	off := ps.snapOffset
	if off > uint64(len(s.Data)) {
		off = 0
	}
	end := off + uint64(n.cfg.SnapshotChunkSize)
	if end > uint64(len(s.Data)) {
		end = uint64(len(s.Data))
	}
	ps.snapAnchor = s.Anchor
	n.tr.Send(peer, &wire.InstallSnapshotReq{
		Term:     n.term,
		LeaderID: n.cfg.ID,
		Anchor:   s.Anchor,
		GTIDSet:  s.GTIDSet,
		Config:   wire.EncodeConfig(s.Config),
		Total:    uint64(len(s.Data)),
		Offset:   off,
		Chunk:    s.Data[off:end],
		Done:     end == uint64(len(s.Data)),
	})
	n.snapMet.chunks.Inc()
	n.snapMet.bytes.Add(int64(end - off))
}

// handleSnapshotResp advances (or aborts) a peer's transfer.
func (n *Node) handleSnapshotResp(resp *wire.InstallSnapshotResp) {
	if resp.Term > n.term {
		n.becomeFollower(resp.Term, "")
		return
	}
	if n.role != RoleLeader || resp.Term < n.term {
		return
	}
	ps := n.peers[resp.From]
	if ps == nil || !ps.snapPending {
		return
	}
	ps.lastAck = n.clk.Now()
	if !resp.Success {
		// The follower could not accept or install; drop back to normal
		// replication, which will re-trigger catch-up if still needed.
		n.snapMet.failures.Inc()
		ps.snapPending = false
		return
	}
	if resp.Installed {
		ps.snapPending = false
		if ps.snapAnchor.Index > ps.match {
			ps.match = ps.snapAnchor.Index
		}
		if ps.match+1 > ps.next {
			ps.next = ps.match + 1
		}
		n.advanceLeaderCommit()
		n.checkTransferProgress()
		if ps.next <= n.lastOpID.Index {
			n.sendAppend(resp.From)
		}
		return
	}
	ps.snapOffset = resp.NextOffset
	n.sendSnapshotChunk(resp.From, ps)
}

// --- follower side ---

// handleSnapshotReq accepts one chunk, buffering until Done and then
// installing through the sink.
func (n *Node) handleSnapshotReq(req *wire.InstallSnapshotReq) {
	resp := &wire.InstallSnapshotResp{Term: n.term, From: n.cfg.ID}
	if req.Term < n.term {
		n.tr.Send(req.LeaderID, resp)
		return
	}
	if req.Term > n.term || n.role != RoleFollower {
		n.becomeFollower(req.Term, req.LeaderID)
	}
	n.noteLeaderContact(req.LeaderID)
	resp.Term = n.term

	// Idempotence: if the log already covers the anchor (a duplicated
	// final chunk, or a re-send racing a lost ack), report installed
	// without touching anything.
	if t, ok := n.termAt(req.Anchor.Index); ok && t == req.Anchor.Term && n.lastOpID.Index >= req.Anchor.Index {
		resp.Success = true
		resp.Installed = true
		resp.NextOffset = req.Total
		n.tr.Send(req.LeaderID, resp)
		return
	}

	if n.snapRecv.anchor != req.Anchor {
		n.snapRecv = snapRecvState{anchor: req.Anchor} // new transfer
	}
	have := uint64(len(n.snapRecv.buf))
	if req.Offset != have {
		// Out-of-order or duplicated chunk: point the leader at the
		// resume offset instead of failing the transfer.
		resp.Success = true
		resp.NextOffset = have
		n.tr.Send(req.LeaderID, resp)
		return
	}
	n.snapRecv.buf = append(n.snapRecv.buf, req.Chunk...)
	resp.NextOffset = uint64(len(n.snapRecv.buf))
	if !req.Done {
		resp.Success = true
		n.tr.Send(req.LeaderID, resp)
		return
	}

	cfg, err := wire.DecodeConfig(req.Config)
	if err != nil {
		n.snapRecv = snapRecvState{}
		n.snapMet.failures.Inc()
		n.tr.Send(req.LeaderID, resp)
		return
	}
	snap := &Snapshot{Anchor: req.Anchor, GTIDSet: req.GTIDSet, Config: cfg, Data: n.snapRecv.buf}
	n.snapRecv = snapRecvState{}
	if err := n.installSnapshot(snap); err != nil {
		n.snapMet.failures.Inc()
		n.tr.Send(req.LeaderID, resp)
		return
	}
	resp.Success = true
	resp.Installed = true
	n.tr.Send(req.LeaderID, resp)
}

// installSnapshot replaces this node's state with the snapshot: quiesce
// the log writer, hand the checkpoint to the sink (engine first, then
// log reset — a crash between the two self-heals by re-transfer), and
// rebase every piece of in-memory bookkeeping on the anchor.
func (n *Node) installSnapshot(s *Snapshot) error {
	if n.cfg.SnapshotSink == nil {
		return errors.New("raft: no snapshot sink configured")
	}
	if err := n.writer.drainAppends(); err != nil {
		return err
	}
	if err := n.cfg.SnapshotSink.InstallSnapshot(s); err != nil {
		return err
	}
	n.cache.reset()
	n.lastOpID = n.log.LastOpID()
	n.firstIndex = n.log.FirstIndex()
	n.snapOp = s.Anchor
	// Everything the snapshot covers is durable on disk; rebase the
	// writer's cursors and this node's durable vote on the anchor.
	n.writer.init(s.Anchor.Index)
	n.selfMatch = s.Anchor.Index
	n.notifyDurableWaiters()
	if s.Anchor.Index > n.commitIndex {
		n.setCommitIndex(s.Anchor.Index)
	}
	// The snapshot's membership becomes the new config-history base:
	// every older config entry is gone from the log.
	n.setMembers(s.Config.Clone())
	n.confHistory = []confVersion{{index: s.Anchor.Index, cfg: s.Config.Clone()}}
	go n.cb.OnMembershipChange(s.Config.Clone())
	n.snapMet.installs.Inc()
	return nil
}
