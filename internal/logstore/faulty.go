package logstore

import (
	"fmt"
	"sync"
	"time"

	"myraft/internal/opid"
	"myraft/internal/wire"
)

// Faulty generalizes Delayed from fixed modeled latency to runtime-
// mutable fsync fault injection: stalls (a storage device that suddenly
// takes hundreds of milliseconds per fsync, the blocked-fsync scenario of
// the durability tests) and outright I/O errors (a dying disk; the log
// writer's sticky-error handling steps the leader down). The chaos
// harness wires one around every member's log store and flips faults on
// and off mid-run.
//
// All methods are safe for concurrent use; the zero fault state is a
// transparent pass-through.
type Faulty struct {
	inner Store

	mu        sync.Mutex
	syncDelay time.Duration
	syncErr   error

	// journal is a bounded trace of mutating operations (appends and
	// truncations) for post-mortem forensics: when a chaos run kills a
	// log writer, the journal shows the exact operation sequence the
	// store saw leading up to the failure.
	journal []string
}

// journalCap bounds the forensic trace; older operations are dropped.
const journalCap = 512

func (f *Faulty) noteLocked(format string, args ...any) {
	if len(f.journal) >= journalCap {
		f.journal = f.journal[len(f.journal)-journalCap/2:]
	}
	f.journal = append(f.journal, fmt.Sprintf(format, args...))
}

// Journal returns a copy of the recent mutating-operation trace.
func (f *Faulty) Journal() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.journal...)
}

// NewFaulty wraps inner with a healthy (pass-through) fault injector.
func NewFaulty(inner Store) *Faulty { return &Faulty{inner: inner} }

// StallSyncs makes every Sync sleep d first (0 clears the stall).
func (f *Faulty) StallSyncs(d time.Duration) {
	f.mu.Lock()
	f.syncDelay = d
	f.mu.Unlock()
}

// FailSyncs makes every Sync return err without reaching the store (nil
// clears the fault).
func (f *Faulty) FailSyncs(err error) {
	f.mu.Lock()
	f.syncErr = err
	f.mu.Unlock()
}

// Heal clears every stall and error.
func (f *Faulty) Heal() {
	f.mu.Lock()
	f.syncDelay, f.syncErr = 0, nil
	f.mu.Unlock()
}

// Append implements raft.LogStore, journaling the append.
func (f *Faulty) Append(e *wire.LogEntry) error {
	aerr := f.inner.Append(e)
	f.mu.Lock()
	if aerr != nil {
		f.noteLocked("append %d.%d -> %v", e.OpID.Term, e.OpID.Index, aerr)
	} else {
		f.noteLocked("append %d.%d", e.OpID.Term, e.OpID.Index)
	}
	f.mu.Unlock()
	return aerr
}

// Sync implements raft.LogStore with the configured sync fault.
func (f *Faulty) Sync() error {
	f.mu.Lock()
	delay, err := f.syncDelay, f.syncErr
	f.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if err != nil {
		return err
	}
	return f.inner.Sync()
}

// Entry implements raft.LogStore.
func (f *Faulty) Entry(index uint64) (*wire.LogEntry, error) { return f.inner.Entry(index) }

// LastOpID implements raft.LogStore.
func (f *Faulty) LastOpID() opid.OpID { return f.inner.LastOpID() }

// FirstIndex implements raft.LogStore.
func (f *Faulty) FirstIndex() uint64 { return f.inner.FirstIndex() }

// TruncateAfter implements raft.LogStore.
func (f *Faulty) TruncateAfter(index uint64) ([]*wire.LogEntry, error) {
	cut, err := f.inner.TruncateAfter(index)
	f.mu.Lock()
	f.noteLocked("truncate-after %d (cut %d) -> err=%v tail=%d", index, len(cut), err, f.inner.LastOpID().Index)
	f.mu.Unlock()
	return cut, err
}

// SnapshotAnchor implements the optional interface raft probes for.
func (f *Faulty) SnapshotAnchor() opid.OpID { return SnapshotAnchor(f.inner) }

// ScanFrom implements the optional interface raft probes for.
func (f *Faulty) ScanFrom(from uint64, fn func(*wire.LogEntry) bool) error {
	return ScanFrom(f.inner, from, fn)
}
