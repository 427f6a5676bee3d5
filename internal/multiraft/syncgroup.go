package multiraft

// syncgroup.go is the storage half of the runtime's shared per-node
// layer: one SyncGroup per node sees every hosted ring's log-writer
// fsync. Each ring's log writer is its store's only Sync caller and
// already groups that ring's appends behind one fsync (the PR 2
// group-commit rule), so there is nothing left to coalesce across rings:
// the group counts the syncs and issues each on its caller's goroutine.
// Different stores' syncs therefore overlap freely (a shared worker or a
// per-node round barrier would make every ring wait out its neighbours'
// fsyncs), and a node's device concurrency is bounded by the number of
// rings it hosts.

import (
	"sync/atomic"

	"myraft/internal/logstore"
	"myraft/internal/opid"
	"myraft/internal/raft"
	"myraft/internal/wire"
)

// SyncGroupStats snapshots one group's counters.
type SyncGroupStats struct {
	// Requests counts Sync calls from shard log writers.
	Requests int64 `json:"requests" metric:"multiraft_fsync_requests"`
	// Syncs counts physical Sync calls issued to stores. With one caller
	// per store every request is its own physical sync, so
	// Requests/Syncs reads 1.0.
	Syncs int64 `json:"syncs" metric:"multiraft_fsync_physical"`
}

// SyncGroup accounts for the fsyncs of every shard hosted on one node.
// The zero value is ready to use.
type SyncGroup struct {
	syncs atomic.Int64
}

// NewSyncGroup returns an empty group.
func NewSyncGroup() *SyncGroup { return &SyncGroup{} }

// Sync issues store's durability barrier on the calling goroutine. It
// neither waits for nor is ordered against any other store's sync, so one
// store's stall or error stays that store's alone.
func (g *SyncGroup) Sync(store raft.LogStore) error {
	g.syncs.Add(1)
	return store.Sync()
}

// Stats snapshots the counters.
func (g *SyncGroup) Stats() SyncGroupStats {
	n := g.syncs.Load()
	return SyncGroupStats{Requests: n, Syncs: n}
}

// Wrap returns store with Sync counted by the group. The wrapper forwards
// the optional fast paths raft probes for (sequential scans, snapshot
// anchors) through the logstore helpers every Store wrapper uses.
func (g *SyncGroup) Wrap(store raft.LogStore) raft.LogStore {
	return &groupedStore{LogStore: store, g: g}
}

// groupedStore intercepts only Sync; the embedded store serves the rest.
type groupedStore struct {
	raft.LogStore
	g *SyncGroup
}

// Sync routes the durability barrier through the per-node group.
func (s *groupedStore) Sync() error { return s.g.Sync(s.LogStore) }

// SnapshotAnchor implements the optional interface raft probes for.
func (s *groupedStore) SnapshotAnchor() opid.OpID { return logstore.SnapshotAnchor(s.LogStore) }

// ScanFrom implements the optional interface raft probes for.
func (s *groupedStore) ScanFrom(from uint64, fn func(*wire.LogEntry) bool) error {
	return logstore.ScanFrom(s.LogStore, from, fn)
}
