package logstore

import (
	"time"

	"myraft/internal/clock"
	"myraft/internal/opid"
	"myraft/internal/wire"
)

// Store is the subset of raft.LogStore that Delayed wraps. It is
// declared locally (structurally identical to raft.LogStore) so this
// package does not import internal/raft, which imports it for tests.
type Store interface {
	Append(e *wire.LogEntry) error
	Entry(index uint64) (*wire.LogEntry, error)
	LastOpID() opid.OpID
	FirstIndex() uint64
	TruncateAfter(index uint64) ([]*wire.LogEntry, error)
	Sync() error
}

// SnapshotAnchor returns inner's snapshot anchor when it has one and
// opid.Zero otherwise. Every Store wrapper forwards through it (and
// ScanFrom): raft probes its log store for these two optional methods,
// and a wrapper that hid them would silently lose the snapshot boundary
// and the fast recovery scan.
func SnapshotAnchor(inner Store) opid.OpID {
	if a, ok := inner.(interface{ SnapshotAnchor() opid.OpID }); ok {
		return a.SnapshotAnchor()
	}
	return opid.Zero
}

// ScanFrom streams inner's entries from index from through its sequential
// scan when it has one, falling back to per-entry reads otherwise.
func ScanFrom(inner Store, from uint64, fn func(*wire.LogEntry) bool) error {
	type scanner interface {
		ScanFrom(from uint64, fn func(*wire.LogEntry) bool) error
	}
	if s, ok := inner.(scanner); ok {
		return s.ScanFrom(from, fn)
	}
	last := inner.LastOpID().Index
	for idx := from; idx != 0 && idx <= last; idx++ {
		e, err := inner.Entry(idx)
		if err != nil {
			return err
		}
		if !fn(e) {
			return nil
		}
	}
	return nil
}

// Delayed wraps a Store and adds a fixed latency to every Sync, modeling
// a real storage device: the repository's tests and benchmarks run on
// fast local filesystems (often tmpfs) where fsync is nearly free, which
// hides exactly the stalls the async durability pipeline exists to
// remove. The wait is clock.Sleep, so a sync lasts SyncDelay plus tens
// of microseconds, not the whole millisecond the runtime's timer rounds
// a short wait up to while the process is idle. A SyncDelay of ~1ms
// approximates a datacenter SSD; ~5ms approximates the battery-backed
// arrays the paper's MySQL fleet uses.
type Delayed struct {
	Inner     Store
	SyncDelay time.Duration // added before each Sync
}

// Append implements raft.LogStore.
func (d Delayed) Append(e *wire.LogEntry) error { return d.Inner.Append(e) }

// Entry implements raft.LogStore.
func (d Delayed) Entry(index uint64) (*wire.LogEntry, error) { return d.Inner.Entry(index) }

// LastOpID implements raft.LogStore.
func (d Delayed) LastOpID() opid.OpID { return d.Inner.LastOpID() }

// FirstIndex implements raft.LogStore.
func (d Delayed) FirstIndex() uint64 { return d.Inner.FirstIndex() }

// TruncateAfter implements raft.LogStore.
func (d Delayed) TruncateAfter(index uint64) ([]*wire.LogEntry, error) {
	return d.Inner.TruncateAfter(index)
}

// Sync implements raft.LogStore, sleeping SyncDelay before delegating.
func (d Delayed) Sync() error {
	clock.Sleep(d.SyncDelay)
	return d.Inner.Sync()
}

// SnapshotAnchor implements the optional interface raft probes for.
func (d Delayed) SnapshotAnchor() opid.OpID { return SnapshotAnchor(d.Inner) }

// ScanFrom implements the optional interface raft probes for.
func (d Delayed) ScanFrom(from uint64, fn func(*wire.LogEntry) bool) error {
	return ScanFrom(d.Inner, from, fn)
}
