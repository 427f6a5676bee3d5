package mysql

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"myraft/internal/binlog"
	"myraft/internal/storage"
	"myraft/internal/trace"
)

// Parallel replication applier (MySQL WRITESET-style).
//
// The coordinator reads committed relay-log entries in index order and
// asks the dependency tracker for each transaction's last conflicting
// predecessor: the highest log index that wrote any row hash in the
// transaction's writeset. A transaction is handed to the worker pool only
// once its dependency is at or below the commit sequencer's floor (the
// highest index whose engine commit has fully completed), so two
// transactions that share a row are never in flight together and workers
// can never deadlock on row locks. Workers do the expensive half — stage
// the RBR payload's rows and write the prepare WAL record — and the
// sequencer then releases engine commits strictly in index order, keeping
// the engine commit sequence gap-free (the invariant the §3.3/§A.2
// restart cursor depends on).
//
// Transactions without a usable writeset (legacy payloads, oversized
// touch-sets, tracker history overflow) fall back to serial ordering:
// they depend on everything before them and act as a barrier for
// everything after, exactly like MySQL's WRITESET fallback to COMMIT_ORDER.

const (
	// maxApplyBatch bounds how many entries one scheduling round considers.
	maxApplyBatch = 256
	// depHistorySize bounds the dependency tracker's hash→index map. On
	// overflow the history is flushed and the current transaction becomes
	// a serial barrier (MySQL's binlog_transaction_dependency_history_size).
	depHistorySize = 1 << 16
)

var errBatchAborted = errors.New("mysql: apply batch aborted")

// depTracker maps row-key hashes to the last log index that wrote them.
type depTracker struct {
	capacity int
	last     map[uint64]uint64
	// barrier is the index every later transaction implicitly depends on:
	// the starting engine cursor, the latest serial-fallback transaction,
	// or the flush point after a history overflow.
	barrier uint64
}

func newDepTracker(capacity int, barrier uint64) *depTracker {
	return &depTracker{capacity: capacity, last: make(map[uint64]uint64), barrier: barrier}
}

// depend returns the last conflicting index for the transaction at idx
// with writeset ws, then records ws as idx's footprint. A nil ws means
// the dependency is unknown: the transaction serializes against
// everything (fallback=true).
func (t *depTracker) depend(idx uint64, ws storage.WritesetView) (dep uint64, fallback bool) {
	if ws.Len() == 0 {
		t.barrier = idx
		clear(t.last)
		return idx - 1, true
	}
	dep = t.barrier
	for i := range ws.Len() {
		if li, ok := t.last[ws.At(i)]; ok {
			if li >= idx {
				li = idx - 1 // stale residue from an abandoned batch
			}
			if li > dep {
				dep = li
			}
		}
	}
	if len(t.last)+ws.Len() > t.capacity {
		clear(t.last)
		t.barrier = idx - 1
		if dep < idx-1 {
			dep = idx - 1
		}
		fallback = true
	}
	for i := range ws.Len() {
		t.last[ws.At(i)] = idx
	}
	return dep, fallback
}

// reset discards all history; barrier becomes the given floor. Used after
// a failed batch, whose recorded footprints never committed.
func (t *depTracker) reset(barrier uint64) {
	clear(t.last)
	t.barrier = barrier
}

type jobState int

const (
	jobPending   jobState = iota // dependency not yet satisfied
	jobQueued                    // handed to the worker pool
	jobRunning                   // worker staging/preparing
	jobPrepared                  // holds row locks, awaiting sequenced commit
	jobSkipped                   // non-data entry or already applied
	jobFailed                    //
	jobCommitted                 //
)

type applyJob struct {
	idx   uint64
	entry *binlog.Entry
	dep   uint64 // last conflicting index; dispatch when dep <= floor
	state jobState
	txn   *storage.Txn // set when jobPrepared
	err   error
	span  *trace.Span // sampled write-path trace context, usually nil
}

// applyBatch is one scheduling round over a contiguous entry range.
type applyBatch struct {
	a       *applier
	mu      sync.Mutex
	cond    *sync.Cond
	jobs    []*applyJob
	work    chan *applyJob
	aborted bool
}

// abort asks an in-flight batch to wind down (applier stop path). Safe to
// call from any goroutine.
func (b *applyBatch) abort() {
	b.mu.Lock()
	b.aborted = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// applyBatch schedules one round over the pre-read entries starting at
// index from, returning the highest index whose effects are durably in
// the engine and whether the whole batch succeeded.
func (a *applier) applyBatch(from uint64, entries []*binlog.Entry) (uint64, bool) {
	a.parallelBatches.Add(1)
	b := &applyBatch{
		a:    a,
		jobs: make([]*applyJob, len(entries)),
		work: make(chan *applyJob, len(entries)),
	}
	b.cond = sync.NewCond(&b.mu)

	engineCursor := a.s.engine.LastCommitted().Index
	runnable := 0
	for i, e := range entries {
		idx := from + uint64(i)
		j := &applyJob{idx: idx, entry: e, state: jobSkipped}
		if e.Type == binlog.EntryNormal && idx > engineCursor {
			j.state = jobPending
			j.span = a.s.tracer.Sample()
			runnable++
			ws, _ := storage.PayloadWriteset(e.Payload)
			var fb bool
			j.dep, fb = a.tracker.depend(idx, ws)
			a.trackedTxns.Add(1)
			if fb {
				a.fallbackTxns.Add(1)
			}
		}
		b.jobs[i] = j
	}

	// Register the batch so applier.stop can abort it, and bail out if a
	// stop raced in before we got here.
	a.mu.Lock()
	if a.stopRequest {
		a.mu.Unlock()
		return from - 1, false
	}
	a.curBatch = b
	a.mu.Unlock()
	defer func() {
		a.mu.Lock()
		a.curBatch = nil
		a.mu.Unlock()
	}()

	for w := 0; w < min(a.workers, runnable); w++ {
		go b.worker()
	}
	floor, ok := b.sequence(from - 1)
	close(b.work)
	return floor, ok
}

// sequence is the coordinator loop: advance the commit floor over the
// finished prefix, dispatch every pending job whose dependency is at or
// below the floor, wait for workers, repeat. Returns the final floor and
// whether every job committed.
func (b *applyBatch) sequence(floor uint64) (uint64, bool) {
	b.mu.Lock()
	next := 0 // lowest job not yet terminal
	for {
		// Commit sequencer: release engine commits strictly in index order.
		for next < len(b.jobs) {
			j := b.jobs[next]
			if j.state == jobSkipped {
				floor = j.idx
				next++
				continue
			}
			if j.state != jobPrepared {
				break
			}
			b.mu.Unlock() // engine commit does WAL I/O; don't hold the batch lock
			var t0 time.Time
			if j.span != nil {
				t0 = time.Now()
			}
			err := j.txn.Commit(j.entry.OpID)
			b.mu.Lock()
			if err != nil {
				j.state = jobFailed
				j.err = fmt.Errorf("mysql: applier commit %s: %w", j.entry.OpID, err)
				break
			}
			if j.span != nil {
				j.span.Observe(trace.StageEngineCommit, time.Since(t0))
				j.span.Finish("replica")
			}
			j.state = jobCommitted
			b.a.appliedTxns.Add(1)
			floor = j.idx
			next++
		}
		if next == len(b.jobs) {
			b.mu.Unlock()
			return floor, true
		}

		failed := b.aborted
		var cause error
		for _, j := range b.jobs[next:] {
			if j.state == jobFailed {
				failed = true
				if cause == nil {
					cause = j.err
				}
			}
		}
		if failed {
			b.failLocked(next) // unlocks b.mu
			if cause != nil {
				b.a.setErr(cause)
			}
			return floor, false
		}

		// Dispatch every runnable job. Dependencies are not monotonic in
		// index, so scan the whole remainder; the head job always has
		// dep <= floor (dep < idx and floor == idx-1), so progress is
		// guaranteed and workers cannot deadlock on shared row locks.
		dispatched := false
		for _, j := range b.jobs[next:] {
			if j.state == jobPending && j.dep <= floor {
				j.state = jobQueued
				b.work <- j // buffered to len(jobs); never blocks
				dispatched = true
			}
		}
		if dispatched {
			continue // the dispatch may already let the sequencer advance
		}
		b.cond.Wait()
	}
}

// failLocked winds the batch down after a failure or abort: waits for
// in-flight workers to finish, rolls back prepared-but-uncommitted
// transactions so their row locks and WAL prepare records are released.
// Called with b.mu held; unlocks it.
func (b *applyBatch) failLocked(next int) {
	b.aborted = true
	for {
		busy := false
		for _, j := range b.jobs[next:] {
			if j.state == jobQueued || j.state == jobRunning {
				busy = true
			}
		}
		if !busy {
			break
		}
		b.cond.Wait()
	}
	for _, j := range b.jobs[next:] {
		if j.state == jobPrepared {
			j.txn.Rollback()
			j.state = jobFailed
			j.err = errBatchAborted
		}
	}
	b.mu.Unlock()
}

// worker consumes dispatched jobs, staging and preparing each transaction
// concurrently with its non-conflicting peers.
func (b *applyBatch) worker() {
	for j := range b.work {
		b.mu.Lock()
		if b.aborted {
			j.state = jobFailed
			j.err = errBatchAborted
			b.cond.Broadcast()
			b.mu.Unlock()
			continue
		}
		j.state = jobRunning
		b.mu.Unlock()

		b.a.busyWorkers.Add(1)
		var t0 time.Time
		if j.span != nil {
			t0 = time.Now()
		}
		txn, err := b.a.stagePrepare(j.entry)
		if j.span != nil && err == nil {
			j.span.Observe(trace.StageApply, time.Since(t0))
			j.span.SetOp(j.entry.OpID.String())
		}
		b.a.busyWorkers.Add(-1)

		b.mu.Lock()
		if err != nil {
			j.state = jobFailed
			j.err = err
		} else {
			j.txn = txn
			j.state = jobPrepared
		}
		b.cond.Broadcast()
		b.mu.Unlock()
	}
}
