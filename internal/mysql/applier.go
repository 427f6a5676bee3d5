package mysql

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"myraft/internal/binlog"
	"myraft/internal/storage"
	"myraft/internal/trace"
)

// applier is the replica-side applier (§3.5): it picks consensus-
// committed transactions out of the relay log and applies them to the
// storage engine through the same prepare/commit cycle as the primary.
// Its gate is the Raft commit marker, forwarded by the plugin through
// Server.OnCommitAdvance; its starting cursor comes from the engine's
// last committed transaction (the online recovery protocol of §3.3
// demotion step 5 and §A.2).
//
// With Options.ApplyWorkers > 1 the applier runs the parallel replication
// scheme of parallel.go: a coordinator reads committed entries in order,
// a writeset dependency tracker computes each transaction's last
// conflicting predecessor, a worker pool stages and prepares
// non-conflicting transactions concurrently, and a commit sequencer
// releases engine commits strictly in OpID order — so the engine commit
// sequence stays gap-free no matter how applies interleave, which is the
// invariant the restart cursor and GTID bookkeeping depend on.
type applier struct {
	s       *Server
	workers int

	mu          sync.Mutex
	cond        *sync.Cond
	running     bool
	stopRequest bool
	commitIdx   uint64
	applied     uint64
	waiters     []applyWaiter
	done        chan struct{}
	lastErr     error // most recent apply failure (diagnostics)

	tracker  *depTracker // owned by the applier goroutine
	curBatch *applyBatch // in-flight parallel batch, for stop() to abort

	// Counters (atomics: read by Status() without taking mu).
	appliedTxns     atomic.Int64 // data transactions engine-committed by this applier
	trackedTxns     atomic.Int64 // data transactions routed through the dependency tracker
	fallbackTxns    atomic.Int64 // tracked transactions that fell back to serial ordering
	parallelBatches atomic.Int64
	serialBatches   atomic.Int64
	busyWorkers     atomic.Int32 // workers currently staging a transaction
}

// applyWaiter is one blocked WaitForApplied/catch-up caller. Waiters are
// indexed so progress signals drain exactly the satisfied ones: the slice
// stays bounded by the number of outstanding waiters instead of churning
// a full close-and-reregister cycle on every applied entry.
type applyWaiter struct {
	index uint64
	ch    chan struct{}
}

func newApplier(s *Server, workers int) *applier {
	if workers < 1 {
		workers = 1
	}
	a := &applier{s: s, workers: workers}
	a.cond = sync.NewCond(&a.mu)
	return a
}

// start launches the applier goroutine, positioning the cursor at the
// engine's last committed OpID.
func (a *applier) start() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.running {
		return
	}
	a.running = true
	a.stopRequest = false
	a.applied = a.s.engine.LastCommitted().Index
	a.tracker = newDepTracker(depHistorySize, a.applied)
	// A recovered engine cursor may sit below the log's retention window
	// when purge advanced over trailing non-data entries the engine
	// cursor never covers; reposition before the loop starts reading.
	a.skipPurgedGapLocked()
	a.done = make(chan struct{})
	go a.run(a.done)
}

// skipPurgedGapLocked advances the apply cursor over entries purged from
// the local log, returning whether it moved. Purge safety
// (Server.safePurgeLimit) only deletes history whose data entries are
// already in the engine's flushed WAL, so a cursor below the retention
// window means the purged gap above it holds only non-data entries
// (no-ops, rotates, config changes): skipping them loses nothing, while
// waiting for the read to succeed would spin forever — the entries will
// never reappear. Covers both the crash-restart path (the engine
// recovers below a purge floor that had advanced over a non-data tail)
// and in-process purges that empty the log entirely, where FirstIndex
// reports 0 and the tail OpID bounds the gap instead. Caller holds a.mu.
func (a *applier) skipPurgedGapLocked() bool {
	target := a.applied
	if first := a.s.log.FirstIndex(); first > 0 {
		if a.applied+1 < first {
			target = first - 1
		}
	} else if last := a.s.log.LastOpID().Index; last > a.applied {
		target = last
	}
	if target == a.applied {
		return false
	}
	a.applied = target
	a.tracker.reset(target)
	a.signalWaitersLocked()
	return true
}

// stop terminates the applier goroutine and waits for it to exit.
func (a *applier) stop() {
	a.mu.Lock()
	if !a.running {
		a.mu.Unlock()
		return
	}
	a.stopRequest = true
	done := a.done
	if b := a.curBatch; b != nil {
		b.abort()
	}
	a.cond.Broadcast()
	a.mu.Unlock()
	<-done
}

// notify advances the commit gate. Signaling is latest-wins: a burst of
// commit advances coalesces into one wakeup of the (single) apply loop,
// and stale or duplicate notifications don't wake anyone.
func (a *applier) notify(commitIdx uint64) {
	a.mu.Lock()
	if commitIdx > a.commitIdx {
		a.commitIdx = commitIdx
		a.cond.Broadcast()
	}
	a.mu.Unlock()
}

// isRunning reports whether the applier goroutine is active.
func (a *applier) isRunning() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.running
}

// lastApplied reports the highest applied index.
func (a *applier) lastApplied() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.applied
}

// catchUpTo blocks until the applier has applied everything up to index
// (promotion step 2, §3.3).
func (a *applier) catchUpTo(ctx context.Context, index uint64) error {
	a.mu.Lock()
	if !a.running {
		a.mu.Unlock()
		// No applier (e.g. fresh bootstrap as primary): nothing to wait
		// for if the engine is already there.
		if a.s.engine.LastCommitted().Index >= index || index == 0 {
			return nil
		}
		return fmt.Errorf("mysql: applier not running, cannot catch up to %d", index)
	}
	a.mu.Unlock()
	return a.waitApplied(ctx, index)
}

// appliedThroughIndexLocked also treats non-data entries at the tail as
// applied: the No-Op itself is never applied to the engine, so catching
// up "to the No-Op" means every data entry before it is in. Progress is
// the applier cursor or the engine's last commit, whichever is ahead —
// on a primary the applier is stopped and pipeline stage 3 commits
// directly to the engine.
func (a *applier) appliedThroughIndexLocked(index uint64) bool {
	progress := a.applied
	if ec := a.s.engine.LastCommitted().Index; ec > progress {
		progress = ec
	}
	if progress >= index {
		return true
	}
	// Everything between progress and index must be non-data entries. The
	// entries just past the apply cursor are in the relay log's in-memory
	// tail, so this reads no file under a.mu unless apply lags beyond it,
	// and then the first entry read is almost surely a data entry.
	for i := progress + 1; i <= index; i++ {
		e, err := a.s.log.Entry(i)
		if err != nil || e.Type == binlog.EntryNormal {
			return false
		}
	}
	return true
}

// waitApplied blocks until every data entry at or below index is visible
// in the engine, whichever path applies it: the applier thread on a
// replica, or pipeline stage 3 on the primary. This is the
// WAIT_FOR_EXECUTED_GTID_SET analog the read path builds on
// (internal/readpath): ReadIndex waits for the confirmed index here, and
// SessionRead waits for the client's session token.
func (a *applier) waitApplied(ctx context.Context, index uint64) error {
	for {
		a.mu.Lock()
		done := a.appliedThroughIndexLocked(index)
		var ch chan struct{}
		if !done {
			ch = make(chan struct{})
			a.waiters = append(a.waiters, applyWaiter{index: index, ch: ch})
		}
		a.mu.Unlock()
		if done {
			return nil
		}
		select {
		case <-ch:
			// Woken either because the waiter was satisfied or because the
			// applier stopped/restarted; loop and re-check.
		case <-ctx.Done():
			a.removeWaiter(ch)
			return ctx.Err()
		}
	}
}

// removeWaiter unregisters a cancelled waiter so abandoned waits do not
// accumulate in the slice.
func (a *applier) removeWaiter(ch chan struct{}) {
	a.mu.Lock()
	for i, w := range a.waiters {
		if w.ch == ch {
			a.waiters = append(a.waiters[:i], a.waiters[i+1:]...)
			break
		}
	}
	a.mu.Unlock()
}

// progress wakes applied-index waiters after out-of-band apply progress
// (pipeline stage 3 engine commits on the primary).
func (a *applier) progress() {
	a.mu.Lock()
	a.signalWaitersLocked()
	a.mu.Unlock()
}

// signalWaitersLocked drains exactly the satisfied waiters after
// progress; unsatisfied waiters stay registered, so the slice never
// exceeds the number of outstanding waits.
func (a *applier) signalWaitersLocked() {
	if len(a.waiters) == 0 {
		return
	}
	progress := a.applied
	if ec := a.s.engine.LastCommitted().Index; ec > progress {
		progress = ec
	}
	kept := a.waiters[:0]
	for _, w := range a.waiters {
		if w.index <= progress || a.appliedThroughIndexLocked(w.index) {
			close(w.ch)
		} else {
			kept = append(kept, w)
		}
	}
	// Zero the dropped tail so satisfied channels are collectable.
	for i := len(kept); i < len(a.waiters); i++ {
		a.waiters[i] = applyWaiter{}
	}
	a.waiters = kept
}

// releaseAllWaitersLocked wakes every waiter regardless of progress (stop
// path); they re-check their condition and re-register if still behind.
func (a *applier) releaseAllWaitersLocked() {
	for _, w := range a.waiters {
		close(w.ch)
	}
	a.waiters = nil
}

// waiterCount reports the registered waiters (tests).
func (a *applier) waiterCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.waiters)
}

// run is the applier loop.
func (a *applier) run(done chan struct{}) {
	defer close(done)
	for {
		a.mu.Lock()
		for !a.stopRequest && a.applied >= a.commitIdx {
			a.cond.Wait()
		}
		if a.stopRequest {
			a.running = false
			a.releaseAllWaitersLocked()
			a.mu.Unlock()
			return
		}
		next := a.applied + 1
		limit := a.commitIdx
		a.mu.Unlock()

		applied, ok := a.applyRange(next, limit)
		a.mu.Lock()
		if applied > a.applied {
			a.applied = applied
		}
		a.signalWaitersLocked()
		if !ok && !a.stopRequest && !a.skipPurgedGapLocked() {
			// Transient failure (entry not readable yet, lock conflict,
			// engine hiccup): back off briefly, then retry. The timer
			// self-wakes the loop so a failure at the tail — with no
			// further commit-advance notifications coming — cannot park
			// the applier forever.
			timer := time.AfterFunc(5*time.Millisecond, func() {
				a.mu.Lock()
				a.cond.Broadcast()
				a.mu.Unlock()
			})
			a.cond.Wait()
			timer.Stop()
		}
		a.mu.Unlock()
	}
}

// applyRange applies entries [from, to] to the engine in bounded chunks,
// returning the last index applied and whether the whole range succeeded.
// Each chunk is one readEntries call; multi-entry chunks then go through
// the parallel scheduler when workers are configured, while a chunk of
// one (the steady-state shape when a caught-up replica sees entries
// trickle in) skips the scheduling machinery entirely.
func (a *applier) applyRange(from, to uint64) (uint64, bool) {
	last := from - 1
	for last < to {
		chunkFrom, chunkTo := last+1, min(last+maxApplyBatch, to)
		entries, err := a.readEntries(chunkFrom, chunkTo)
		if err != nil {
			a.setErr(err)
			return last, false
		}
		if a.workers > 1 && len(entries) > 1 {
			var ok bool
			last, ok = a.applyBatch(chunkFrom, entries)
			if !ok {
				// Footprints recorded for uncommitted entries are garbage;
				// restart tracking from a clean barrier at the floor.
				a.tracker.reset(last)
				return last, false
			}
		} else {
			a.serialBatches.Add(1)
			for i, e := range entries {
				if err := a.applyEntry(e); err != nil {
					a.setErr(err)
					return last, false
				}
				last = chunkFrom + uint64(i)
			}
		}
	}
	return last, true
}

// readEntries fetches [from, to] from the relay log: from its in-memory
// tail when the applier keeps up, with one span read per file when it
// lags beyond it (after a restart, or a burst longer than the tail).
func (a *applier) readEntries(from, to uint64) ([]*binlog.Entry, error) {
	entries, err := a.s.log.Entries(from, to)
	if err != nil {
		return nil, fmt.Errorf("read [%d,%d]: %w", from, to, err)
	}
	return entries, nil
}

func (a *applier) setErr(err error) {
	a.mu.Lock()
	a.lastErr = err
	a.mu.Unlock()
}

// applyEntry applies one relay-log transaction: RBR payload staged and
// prepared, engine commit stamped with the entry's OpID. The
// commit-marker gate already ran, so stage 2 of the replica pipeline is
// implicitly satisfied (§3.5).
func (a *applier) applyEntry(e *binlog.Entry) error {
	if e.Type != binlog.EntryNormal {
		return nil // No-Ops, config changes and rotates don't touch the engine.
	}
	// Idempotence across restarts: the engine cursor may be ahead of the
	// applier's starting index for entries the WAL already replayed.
	if e.OpID.Index <= a.s.engine.LastCommitted().Index {
		return nil
	}
	sp := a.s.tracer.Sample()
	var t0 time.Time
	if sp != nil {
		t0 = time.Now()
	}
	txn, err := a.stagePrepare(e)
	if err != nil {
		return err
	}
	if sp != nil {
		sp.Observe(trace.StageApply, time.Since(t0))
		sp.SetOp(e.OpID.String())
		t0 = time.Now()
	}
	if err := txn.Commit(e.OpID); err != nil {
		return fmt.Errorf("mysql: applier commit %s: %w", e.OpID, err)
	}
	if sp != nil {
		sp.Observe(trace.StageEngineCommit, time.Since(t0))
		sp.Finish("replica")
	}
	a.appliedTxns.Add(1)
	return nil
}

// stagePrepare runs the parallelizable half of one transaction apply:
// stage the RBR payload's rows and write the prepare marker, in one
// engine call that reads the payload in place. The returned transaction
// holds its row locks and awaits its sequenced engine commit.
func (a *applier) stagePrepare(e *binlog.Entry) (*storage.Txn, error) {
	txn, err := a.s.engine.StagePayload(e.Payload)
	if err != nil {
		return nil, fmt.Errorf("mysql: applier stage %s: %w", e.OpID, err)
	}
	return txn, nil
}

// ApplyStatus is the externally visible state of the (parallel) applier:
// apply lag, worker occupancy and conflict-fallback accounting, surfaced
// through Server.Status and adminapi /status.
type ApplyStatus struct {
	// Running reports whether the applier thread is active.
	Running bool `json:"running" metric:"apply_running"`
	// Workers is the configured apply concurrency (1 = serial).
	Workers int `json:"workers" metric:"apply_workers"`
	// Position is the highest log index applied to the engine.
	Position uint64 `json:"position" metric:"apply_position"`
	// CommitIndex is the applier's view of the consensus commit gate.
	CommitIndex uint64 `json:"commit_index"`
	// Lag is CommitIndex - Position: committed transactions not yet
	// applied (what a promotion would have to drain, §3.3 step 2).
	Lag uint64 `json:"lag" metric:"apply_lag"`
	// BusyWorkers is the number of workers currently staging a
	// transaction (instantaneous occupancy).
	BusyWorkers int `json:"busy_workers,omitempty" metric:"apply_busy_workers"`
	// AppliedTxns counts data transactions engine-committed by the
	// applier since server start.
	AppliedTxns int64 `json:"applied_txns,omitempty" metric:"apply_txns"`
	// TrackedTxns counts transactions routed through the writeset
	// dependency tracker (parallel batches only).
	TrackedTxns int64 `json:"tracked_txns,omitempty"`
	// ConflictFallbacks counts tracked transactions that fell back to
	// serial ordering (missing/oversized writeset or history overflow).
	ConflictFallbacks int64 `json:"conflict_fallbacks,omitempty" metric:"apply_conflict_fallbacks"`
	// FallbackRate is ConflictFallbacks / TrackedTxns (0 when nothing was
	// tracked).
	FallbackRate float64 `json:"fallback_rate,omitempty"`
	// ParallelBatches / SerialBatches count scheduling decisions.
	ParallelBatches int64 `json:"parallel_batches,omitempty" metric:"apply_parallel_batches"`
	SerialBatches   int64 `json:"serial_batches,omitempty"`
	// LastError is the most recent apply failure ("" when healthy).
	LastError string `json:"last_error,omitempty"`
}

// status snapshots the applier's observable state.
func (a *applier) status() ApplyStatus {
	a.mu.Lock()
	st := ApplyStatus{
		Running:     a.running,
		Workers:     a.workers,
		Position:    a.applied,
		CommitIndex: a.commitIdx,
	}
	if a.commitIdx > a.applied {
		st.Lag = a.commitIdx - a.applied
	}
	if a.lastErr != nil {
		st.LastError = a.lastErr.Error()
	}
	a.mu.Unlock()
	st.BusyWorkers = int(a.busyWorkers.Load())
	st.AppliedTxns = a.appliedTxns.Load()
	st.TrackedTxns = a.trackedTxns.Load()
	st.ConflictFallbacks = a.fallbackTxns.Load()
	if st.TrackedTxns > 0 {
		st.FallbackRate = float64(st.ConflictFallbacks) / float64(st.TrackedTxns)
	}
	st.ParallelBatches = a.parallelBatches.Load()
	st.SerialBatches = a.serialBatches.Load()
	return st
}
