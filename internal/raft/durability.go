package raft

// durability.go implements the asynchronous durability pipeline: a
// dedicated per-node log-writer goroutine owns LogStore.Append and
// LogStore.Sync, so the single event loop never blocks on disk I/O
// behind heartbeats, elections, or read rounds. The event loop hands the
// writer entries (appendLocal just enqueues); the writer drains its
// queue in batches, appends each entry, and issues ONE group fsync per
// drained batch — the same "one durability point per group" structure as
// the MySQL commit pipeline (§3.4), but shared across every concurrent
// producer: leader proposals, follower replication, and rotate markers
// all coalesce onto the same fsync.
//
// Completed fsyncs post a monotonic *durable index* back to the event
// loop (the notify channel). Acknowledgements are gated on it:
//
//   - a follower's AppendEntriesResp.MatchIndex never exceeds its durable
//     index (entries sitting in an OS buffer are not acked; when the
//     group fsync covers them, the follower sends an unsolicited
//     durability ack), and
//   - the leader's own vote toward advanceLeaderCommit is its durable
//     cursor (selfMatch), not its in-memory tail.
//
// Together these restore the §A.2 crash guarantee — an acked entry is on
// disk — without putting a single fsync on the event loop.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"myraft/internal/metrics"
	"myraft/internal/trace"
	"myraft/internal/wire"
)

// ErrNotDurable aborts a WaitDurable whose entry was truncated away (a
// newer leader overwrote the unsynced tail) before becoming durable.
var ErrNotDurable = fmt.Errorf("raft: entry truncated before becoming durable: %w", ErrLeadershipLost)

// entryOverheadBytes approximates the fixed per-entry cost (headers,
// checksums, bookkeeping) in the writer's unsynced-bytes accounting, so
// empty-payload entries still count toward backpressure.
const entryOverheadBytes = 64

// durMetrics is the durability pipeline's observability sink.
type durMetrics struct {
	// fsyncs counts completed group fsyncs.
	fsyncs metrics.Counter
	// fsyncBatch is the distribution of entries covered per group fsync —
	// the coalescing factor.
	fsyncBatch *metrics.IntHistogram
	// appendDurable is the enqueue→durable latency distribution (the
	// durability lag an acked entry experienced).
	appendDurable *metrics.Histogram
	// loopBlocked accumulates nanoseconds the event loop spent blocked on
	// the writer: backpressure waits plus drain-before-truncate waits.
	loopBlocked metrics.Counter
}

func newDurMetrics() *durMetrics {
	return &durMetrics{
		fsyncBatch:    metrics.NewIntHistogramCapped(8192),
		appendDurable: metrics.NewHistogramCapped(8192),
	}
}

// DurabilityStats is a point-in-time snapshot of the durability pipeline,
// surfaced through adminapi /status and the experiment harness.
type DurabilityStats struct {
	// DurableIndex is the highest index covered by a completed fsync.
	DurableIndex uint64 `json:"durable_index" metric:"raft_durable_index"`
	// AppendedIndex is the highest index handed to the LogStore.
	AppendedIndex uint64 `json:"appended_index" metric:"raft_appended_index"`
	// UnsyncedBytes is the current backpressure debt.
	UnsyncedBytes int64 `json:"unsynced_bytes" metric:"raft_unsynced_bytes"`
	// Fsyncs counts completed group fsyncs.
	Fsyncs int64 `json:"fsyncs" metric:"raft_fsyncs"`
	// FsyncBatch summarizes entries covered per fsync.
	FsyncBatch metrics.IntSummary `json:"fsync_batch,omitzero"`
	// AppendDurable summarizes enqueue→durable latency.
	AppendDurable metrics.Summary `json:"append_durable,omitzero"`
	// LoopBlocked is total event-loop time spent blocked on the writer.
	LoopBlocked time.Duration `json:"loop_blocked_ns,omitempty" metric:"raft_loop_blocked_ns"`
	// Err is the writer's sticky I/O error, nil while healthy. Once set
	// the node cannot ack anything again until restarted.
	Err error `json:"-"`
}

// queuedAppend is one entry waiting in the writer's queue.
type queuedAppend struct {
	e        *wire.LogEntry
	enqueued time.Time
	bytes    int64
	span     *trace.Span // sampled write-path trace context, usually nil
}

// logWriter is the off-loop log writer. The event loop is its only
// producer (enqueue/drainAppends/truncate run on the loop); run is its
// only consumer goroutine.
type logWriter struct {
	log         LogStore
	maxUnsynced int64 // backpressure bound; <= 0 disables
	met         *durMetrics

	mu    sync.Mutex
	cond  *sync.Cond // broadcast on any state change
	queue []queuedAppend
	// spare is the previous batch's emptied slice: run swaps it in as
	// the queue when it takes a batch, so neither regrows per batch.
	spare []queuedAppend
	busy  bool // run is appending/syncing a taken batch

	unsyncedBytes int64
	appended      uint64 // highest index handed to the LogStore
	durable       uint64 // highest index covered by a completed fsync
	err           error  // sticky first I/O failure
	stopped       bool

	// notify wakes the event loop after a completed fsync (or failure);
	// capacity 1, non-blocking sends — the loop re-reads state, so one
	// pending signal covers any number of completions.
	notify chan struct{}
	done   chan struct{}
}

func newLogWriter(log LogStore, cfg Config, met *durMetrics) *logWriter {
	w := &logWriter{
		log:         log,
		maxUnsynced: cfg.MaxUnsyncedBytes,
		met:         met,
		notify:      make(chan struct{}, 1),
		done:        make(chan struct{}),
	}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// init seeds the cursors from the recovered log tail: everything read
// back from disk at startup is durable by definition.
func (w *logWriter) init(tail uint64) {
	w.mu.Lock()
	w.appended = tail
	w.durable = tail
	w.mu.Unlock()
}

// enqueue hands one entry to the writer. It blocks only when the
// unsynced-bytes bound is exceeded (backpressure), which is recorded as
// loop-blocked time. Called on the event loop.
func (w *logWriter) enqueue(e *wire.LogEntry, sp *trace.Span) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.stopped {
		return ErrStopped
	}
	if w.maxUnsynced > 0 && w.unsyncedBytes >= w.maxUnsynced {
		start := time.Now()
		for w.unsyncedBytes >= w.maxUnsynced && w.err == nil && !w.stopped {
			w.cond.Wait()
		}
		w.met.loopBlocked.Add(time.Since(start).Nanoseconds())
		if w.err != nil {
			return w.err
		}
		if w.stopped {
			return ErrStopped
		}
	}
	b := int64(len(e.Payload)) + entryOverheadBytes
	w.queue = append(w.queue, queuedAppend{e: e, enqueued: time.Now(), bytes: b, span: sp})
	w.unsyncedBytes += b
	w.cond.Broadcast()
	return nil
}

// drainAppends blocks until every enqueued entry has been handed to the
// LogStore and the in-flight batch (including its fsync) has completed,
// returning the writer's sticky error. The event loop calls it before
// log reads of just-queued entries and before truncation. Safe against
// deadlock: the loop is the only producer, and run makes progress
// without it.
func (w *logWriter) drainAppends() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.queue) == 0 && !w.busy {
		return w.err
	}
	start := time.Now()
	for (len(w.queue) > 0 || w.busy) && w.err == nil {
		w.cond.Wait()
	}
	w.met.loopBlocked.Add(time.Since(start).Nanoseconds())
	return w.err
}

// truncate clamps the cursors after the log tail was cut to index. The
// caller must have drained the writer first.
func (w *logWriter) truncate(index uint64) {
	w.mu.Lock()
	if w.appended > index {
		w.appended = index
	}
	if w.durable > index {
		w.durable = index
	}
	w.mu.Unlock()
}

// state returns the durable cursor and sticky error.
func (w *logWriter) state() (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.durable, w.err
}

// stats snapshots the writer for DurabilityStats.
func (w *logWriter) stats() DurabilityStats {
	w.mu.Lock()
	durable, appended, unsynced, serr := w.durable, w.appended, w.unsyncedBytes, w.err
	w.mu.Unlock()
	return DurabilityStats{
		DurableIndex:  durable,
		AppendedIndex: appended,
		UnsyncedBytes: unsynced,
		Err:           serr,
		Fsyncs:        w.met.fsyncs.Value(),
		FsyncBatch:    w.met.fsyncBatch.Summarize(),
		AppendDurable: w.met.appendDurable.Summarize(),
		LoopBlocked:   time.Duration(w.met.loopBlocked.Value()),
	}
}

// stop drains the queue (final group fsync included) and terminates the
// writer goroutine. Idempotent.
func (w *logWriter) stop() {
	w.mu.Lock()
	w.stopped = true
	w.cond.Broadcast()
	w.mu.Unlock()
	<-w.done
}

// signal wakes the event loop; a full channel already guarantees a wake.
func (w *logWriter) signal() {
	select {
	case w.notify <- struct{}{}:
	default:
	}
}

// run is the writer goroutine: drain the whole queue as one batch, append
// every entry, then issue a single Sync covering all of them. Entries
// enqueued while a sync is in flight pile up and share the next one —
// that is the fsync coalescing.
func (w *logWriter) run() {
	defer close(w.done)
	for {
		w.mu.Lock()
		for len(w.queue) == 0 && !w.stopped {
			w.cond.Wait()
		}
		if len(w.queue) == 0 {
			w.mu.Unlock()
			return // stopped and fully drained
		}
		batch := w.queue
		w.queue = w.spare
		w.busy = true
		w.mu.Unlock()

		w.process(batch)
		clear(batch) // drop the entry and span references

		w.mu.Lock()
		w.spare = batch[:0]
		w.busy = false
		w.cond.Broadcast()
		w.mu.Unlock()
	}
}

// process appends the batch and covers it with one fsync.
func (w *logWriter) process(batch []queuedAppend) {
	var err error
	n := 0
	for _, q := range batch {
		if err = w.log.Append(q.e); err != nil {
			break
		}
		q.span.Observe(trace.StageAppend, time.Since(q.enqueued))
		n++
	}
	if err == nil && n > 0 {
		err = w.log.Sync()
	}
	if err != nil {
		w.fail(batch, err)
		return
	}
	w.complete(batch, batch[n-1].e.OpID.Index)
}

// complete publishes a successful durability point covering batch, whose
// highest appended index is through.
func (w *logWriter) complete(batch []queuedAppend, through uint64) {
	now := time.Now()
	w.mu.Lock()
	for _, q := range batch {
		w.unsyncedBytes -= q.bytes
	}
	if through > w.appended {
		w.appended = through
	}
	if through > w.durable {
		w.durable = through
	}
	w.mu.Unlock()
	w.met.fsyncs.Inc()
	w.met.fsyncBatch.Observe(int64(len(batch)))
	for _, q := range batch {
		w.met.appendDurable.Observe(now.Sub(q.enqueued))
		q.span.Observe(trace.StageFsync, now.Sub(q.enqueued))
	}
	w.cond.Broadcast()
	w.signal()
}

// fail records the sticky error and releases the failed entries' bytes.
func (w *logWriter) fail(batch []queuedAppend, err error) {
	w.mu.Lock()
	for _, q := range batch {
		w.unsyncedBytes -= q.bytes
	}
	if w.err == nil {
		w.err = err
	}
	w.cond.Broadcast()
	w.mu.Unlock()
	w.signal()
}

// --- event-loop side (all methods below run on the node's event loop
// unless noted) ---

// durableAck is a follower-side deferred acknowledgement: entries were
// appended past the durable cursor, so the immediate response was capped
// and the full ack is owed once the group fsync covers them.
type durableAck struct {
	leader  wire.NodeID
	term    uint64
	readSeq uint64
	match   uint64 // highest index verified against leader's stream
}

// onDurableAdvance handles a writer notification: adopt the new durable
// index, resolve durability waiters, and either advance the leader's
// commit marker or send the follower's owed durability ack.
func (n *Node) onDurableAdvance() {
	durable, werr := n.writer.state()
	if werr != nil {
		// The log is broken; a leader cannot guarantee durability of
		// anything it acks, so step down. (Commit waiters fail via the
		// demotion path.)
		n.failDurableWaiters(werr)
		if n.role == RoleLeader {
			n.becomeFollower(n.term, "")
		}
		return
	}
	if durable <= n.selfMatch {
		return
	}
	n.selfMatch = durable
	n.notifyDurableWaiters()
	switch n.role {
	case RoleLeader:
		n.advanceLeaderCommit()
	case RoleFollower:
		n.sendDurableAck()
	}
}

// armDurableAck records that the current leader is owed an ack for
// entries up to match once they are durable.
func (n *Node) armDurableAck(leader wire.NodeID, readSeq, match uint64) {
	if pa := n.pendingAck; pa != nil && pa.term == n.term && pa.match > match {
		match = pa.match
	}
	n.pendingAck = &durableAck{leader: leader, term: n.term, readSeq: readSeq, match: match}
}

// sendDurableAck sends the owed unsolicited durability ack, keeping it
// armed while the durable cursor still trails the owed match.
func (n *Node) sendDurableAck() {
	pa := n.pendingAck
	if pa == nil {
		return
	}
	if n.role != RoleFollower || pa.term != n.term || pa.leader != n.leader {
		n.pendingAck = nil // superseded by a role or leadership change
		return
	}
	ack := pa.match
	if ack > n.selfMatch {
		ack = n.selfMatch // partial progress: ack what is durable so far
	} else {
		n.pendingAck = nil
	}
	n.tr.Send(pa.leader, &wire.AppendEntriesResp{
		Term:       n.term,
		From:       n.cfg.ID,
		Success:    true,
		MatchIndex: ack,
		LastIndex:  n.lastOpID.Index,
		ReadSeq:    pa.readSeq,
	})
}

// notifyDurableWaiters completes WaitDurable calls up to selfMatch.
func (n *Node) notifyDurableWaiters() {
	if len(n.durableWaiters) == 0 {
		return
	}
	kept := n.durableWaiters[:0]
	for _, w := range n.durableWaiters {
		if w.index <= n.selfMatch {
			w.ch <- nil
		} else {
			kept = append(kept, w)
		}
	}
	n.durableWaiters = kept
}

// failDurableWaiters aborts every durability wait with err.
func (n *Node) failDurableWaiters(err error) {
	for _, w := range n.durableWaiters {
		w.ch <- err
	}
	n.durableWaiters = nil
}

// failDurableWaitersAbove aborts durability waits beyond index (their
// entries were truncated and will never become durable).
func (n *Node) failDurableWaitersAbove(index uint64) {
	if len(n.durableWaiters) == 0 {
		return
	}
	kept := n.durableWaiters[:0]
	for _, w := range n.durableWaiters {
		if w.index > index {
			w.ch <- ErrNotDurable
		} else {
			kept = append(kept, w)
		}
	}
	n.durableWaiters = kept
}

// WaitDurable blocks until the local log is durable (group-fsynced)
// through index, the entry is truncated away, the node stops, or the
// context is done. A caller may register the wait long after the
// propose — the MySQL commit pipeline's committer does, through
// WaitDurableCommit, instead of issuing its own Sync (§3.4) — so a
// truncation or writer failure that happened in between, whose waiter
// flush already ran, fails it here.
func (n *Node) WaitDurable(ctx context.Context, index uint64) error {
	ch := make(chan error, 1)
	err := n.post(func() { n.awaitDurable(index, ch) })
	if err != nil {
		return err
	}
	select {
	case err := <-ch:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// awaitDurable completes ch once index is locally durable, at once if it
// already is or can never be, else through durableWaiters.
func (n *Node) awaitDurable(index uint64, ch chan error) {
	if index <= n.selfMatch {
		ch <- nil
		return
	}
	if index > n.lastOpID.Index {
		ch <- ErrNotDurable
		return
	}
	if _, werr := n.writer.state(); werr != nil {
		ch <- werr
		return
	}
	n.durableWaiters = append(n.durableWaiters, commitWaiter{index: index, ch: ch})
}

// DurableIndex returns the highest locally durable log index.
func (n *Node) DurableIndex() uint64 {
	var idx uint64
	n.post(func() { idx = n.selfMatch })
	return idx
}

// DurabilityStats snapshots the durability pipeline. Safe to call from
// any goroutine without going through the event loop.
func (n *Node) DurabilityStats() DurabilityStats {
	return n.writer.stats()
}
