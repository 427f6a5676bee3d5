package mysql

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"myraft/internal/metrics"
	"myraft/internal/opid"
	"myraft/internal/storage"
	"myraft/internal/trace"
)

// pipeline implements the 3-stage group commit of §3.4, pipelined across
// groups. Client threads enqueue prepared transactions; two goroutines
// walk the stages:
//
//   - The flusher (stage 1) drains the queue into groups and proposes
//     each group through Raft in a single batched event-loop post, which
//     assigns OpIDs and writes the binlog; it waits for the group's local
//     durability point and hands the group to the committer.
//   - The committer (stages 2–3) waits for Raft consensus commit of the
//     group's LAST transaction (consensus on the last one implies all),
//     then commits the prepared transactions to the engine in order and
//     releases their clients.
//
// The two are connected by a bounded in-flight-groups channel: the
// flusher may propose group N+1 while group N still awaits quorum, so a
// quorum round-trip is amortized across up to CommitPipelineDepth groups
// instead of gating one group per round-trip. Depth 1 degenerates to the
// fully serial pipeline (the flusher cannot start a group before the
// previous one engine-commits — the pre-pipelining behavior).
//
// Ordering invariants survive the overlap because the committer stays
// single and strictly FIFO: engine commits happen in log order with no
// gaps, which the applier's restart cursor depends on (§3.3 step 5). On
// demotion mid-pipeline every queued group fails its stage-2 wait and
// re-checks the commit marker per transaction, exactly like the serial
// pipeline did: transactions at or below the marker are committed (they
// are consensus-committed and durable on a quorum), the rest roll back.
//
// The pipeline — not the submitting client — owns a transaction once it
// is enqueued: a client whose context expires mid-wait simply stops
// waiting, while the transaction still commits if consensus is reached
// (MySQL semantics for a disconnected client) or rolls back if consensus
// fails.
//
// Stage 2 deliberately has no timeout: on a leader that cannot reach its
// quorum, commits block until the partition heals or leadership is lost —
// the paper's "consistency over availability" choice (§4.1). The
// consensus layer fails the wait on demotion, crash or shutdown.
type pipeline struct {
	s     *Server
	depth int

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*pendingTxn
	failed error

	// slots is the in-flight group semaphore: the flusher acquires a slot
	// before proposing a group, the committer releases it after the
	// group's engine commit. Capacity is the pipeline depth, so at depth 1
	// the flusher is exactly as serial as the old single-worker pipeline.
	slots chan struct{}
	// inflight is the ordered flusher → committer handoff. Its capacity
	// matches slots, so the send never blocks while a slot is held.
	inflight chan *commitGroup
	// quit unblocks the flusher's slot wait when the pipeline is poisoned
	// (the committer may be parked in a quorum wait holding every slot).
	quit     chan struct{}
	quitOnce sync.Once
	done     chan struct{}

	// skippedSyncs counts consecutive engine-sync deferrals (committer
	// goroutine only; see maybeSync / maxCoalescedSyncs).
	skippedSyncs int

	// Stats (adminapi /status, /metrics, myraftctl top).
	inflightGroups atomic.Int32
	groupsProposed atomic.Int64
	txnsCommitted  atomic.Int64
	txnsAborted    atomic.Int64
	flushBusyNs    atomic.Int64
	quorumBusyNs   atomic.Int64
	engineBusyNs   atomic.Int64
	syncsCoalesced atomic.Int64
	groupSizes     *metrics.IntHistogram
}

// commitGroup is one flushed group in flight between the flusher and the
// committer: every transaction has its OpID assigned and the group is
// locally durable through its last entry.
type commitGroup struct {
	repl Replicator
	txns []*pendingTxn
}

// pendingTxn is one client transaction riding the pipeline.
type pendingTxn struct {
	repl Replicator
	txn  *storage.Txn
	op   opid.OpID
	done chan error
	// Write-path tracing (nil when the transaction is unsampled): the span
	// and the propose completion time the commit stage is measured from.
	span       *trace.Span
	proposedAt time.Time
}

func newPipeline(s *Server) *pipeline {
	depth := s.opts.CommitPipelineDepth
	if depth == 0 {
		depth = defaultCommitPipelineDepth
	}
	if depth < 1 {
		depth = 1
	}
	p := &pipeline{
		s:          s,
		depth:      depth,
		slots:      make(chan struct{}, depth),
		inflight:   make(chan *commitGroup, depth),
		quit:       make(chan struct{}),
		done:       make(chan struct{}),
		groupSizes: metrics.NewIntHistogramCapped(4096),
	}
	p.cond = sync.NewCond(&p.mu)
	go p.flusher()
	go p.committer()
	return p
}

// commit enqueues one prepared transaction and waits for its outcome (or
// the client's context, whichever comes first).
func (p *pipeline) commit(ctx context.Context, repl Replicator, txn *storage.Txn) (opid.OpID, error) {
	pt := &pendingTxn{repl: repl, txn: txn, done: make(chan error, 1)}
	p.mu.Lock()
	if p.failed != nil {
		err := p.failed
		p.mu.Unlock()
		txn.Rollback()
		return opid.Zero, err
	}
	p.queue = append(p.queue, pt)
	p.cond.Signal()
	p.mu.Unlock()

	select {
	case err := <-pt.done:
		if err != nil {
			return opid.Zero, err
		}
		return pt.op, nil
	case <-ctx.Done():
		// The client abandons the wait; the pipeline still owns the
		// transaction and will commit or roll it back when consensus
		// resolves.
		return opid.Zero, ctx.Err()
	}
}

// flusher is the stage-1 loop: it drains the queue into groups and
// proposes each. Consecutive transactions sharing a Replicator form one
// group (the replicator changes only across role transitions). It closes
// the inflight channel on exit; the committer drains what remains.
func (p *pipeline) flusher() {
	defer close(p.inflight)
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && p.failed == nil {
			p.cond.Wait()
		}
		if p.failed != nil {
			err := p.failed
			queue := p.queue
			p.queue = nil
			p.mu.Unlock()
			for _, pt := range queue {
				p.abort(pt, err)
			}
			return
		}
		batch := p.queue
		p.queue = nil
		p.mu.Unlock()

		for len(batch) > 0 {
			repl := batch[0].repl
			n := 1
			for n < len(batch) && batch[n].repl == repl {
				n++
			}
			if !p.flushGroup(repl, batch[:n]) {
				// Poisoned while waiting for an in-flight slot: the group
				// was aborted un-proposed. Fail the rest of the batch the
				// same way; the top of the loop then drains the queue and
				// exits.
				err := p.failErr()
				for _, pt := range batch[n:] {
					p.abort(pt, err)
				}
				break
			}
			batch = batch[n:]
		}
	}
}

// flushGroup runs stage 1 for one group: acquire an in-flight slot,
// propose the whole group in one batched consensus round-trip, wait for
// the group's local durability point, and hand it to the committer. It
// returns false only when the pipeline was poisoned before the group
// could be proposed (the group's transactions are aborted).
func (p *pipeline) flushGroup(repl Replicator, group []*pendingTxn) bool {
	select {
	case p.slots <- struct{}{}:
	case <-p.quit:
		err := p.failErr()
		for _, pt := range group {
			p.abort(pt, err)
		}
		return false
	}
	start := time.Now()
	// Commit-time GTID assignment for the whole group at once. Reading
	// the executed set once per group is safe because the flusher waits
	// for local durability below before forming the next group, and
	// durability implies the binlog append — the set always covers every
	// previously flushed group by the time it is read again.
	gtids := p.s.nextGTIDs(len(group))
	reqs := make([]TxnProposal, len(group))
	for i, pt := range group {
		// The payload carries the transaction's writeset ahead of the row
		// changes so replica appliers can schedule non-conflicting
		// transactions in parallel without decoding the rows.
		reqs[i] = TxnProposal{Payload: storage.EncodeTxnPayload(pt.txn.Changes()), GTID: gtids[i]}
	}
	// Sampled groups get a trace span. Arming it hands it to the raft
	// propose path (which runs synchronously under the batch call) so the
	// consensus layer can observe append/fsync/replicate without widening
	// the Replicator interface; it rides the batch's LAST entry, whose
	// fsync and commit cover the whole group.
	sp := p.s.tracer.Sample()
	var t0 time.Time
	if sp != nil {
		t0 = time.Now()
		p.s.tracer.Arm(sp)
	}
	ops, err := repl.ProposeTransactionBatch(reqs)
	flushed := group[:len(ops)]
	for i, pt := range flushed {
		pt.op = ops[i]
	}
	if err != nil {
		// The appended prefix is in the log and will replicate; it stays
		// in the pipeline. Everything past it was never appended.
		for _, pt := range group[len(ops):] {
			p.abort(pt, err)
		}
	}
	if len(flushed) == 0 {
		<-p.slots
		return true
	}
	last := flushed[len(flushed)-1]
	if sp != nil {
		sp.Observe(trace.StagePropose, time.Since(t0))
		last.span = sp
		last.proposedAt = time.Now()
	}
	// One durability point per group: instead of fsyncing inline (which
	// would serialize the flusher behind the disk), wait for the
	// consensus layer's log writer to report the group's last entry
	// durable. The writer groups fsyncs across everything queued behind
	// it, so under load one flush covers several pipeline groups.
	if err := repl.WaitDurable(context.Background(), last.op.Index); err != nil {
		for _, pt := range flushed {
			p.abort(pt, err)
		}
		<-p.slots
		return true
	}
	p.flushBusyNs.Add(time.Since(start).Nanoseconds())
	p.groupsProposed.Add(1)
	p.groupSizes.Observe(int64(len(flushed)))
	p.inflightGroups.Add(1)
	// Never blocks: a slot is held for every group in the channel and the
	// capacities match.
	p.inflight <- &commitGroup{repl: repl, txns: flushed}
	return true
}

// committer is the stages-2–3 loop: strictly FIFO over flushed groups, so
// the engine commit sequence is exactly the log order regardless of
// pipeline depth.
func (p *pipeline) committer() {
	defer close(p.done)
	for g := range p.inflight {
		p.commitGroup(g)
		p.inflightGroups.Add(-1)
		<-p.slots
	}
}

// commitGroup walks one flushed group through the quorum wait and the
// engine commit.
func (p *pipeline) commitGroup(g *commitGroup) {
	flushed := g.txns
	last := flushed[len(flushed)-1]

	// Stage 2 — wait for consensus commit of the group's last entry. The
	// consensus layer resolves this wait on commit, demotion, or
	// shutdown; there is deliberately no client-side timeout here (see
	// the type comment).
	start := time.Now()
	err := g.repl.WaitCommitted(context.Background(), last.op.Index)
	p.quorumBusyNs.Add(time.Since(start).Nanoseconds())
	if err != nil {
		// Consensus failed for the tail; transactions at or below the
		// actual commit marker may still be in — re-check individually
		// so a partial group is not spuriously aborted.
		commit := g.repl.CommitIndex()
		healthy := true
		for _, pt := range flushed {
			if pt.op.Index <= commit && healthy {
				healthy = p.engineCommit(pt)
			} else {
				p.abort(pt, err)
			}
		}
		return
	}

	// Stage 3 — storage engine commit, strictly in group (= log) order.
	// If one commit fails mid-group (a concurrent demotion rolled the
	// prepared transaction back), the LATER transactions must not commit
	// either: the engine's last-committed OpID is the applier's restart
	// cursor (§3.3 step 5), so engine commits must stay gap-free — the
	// applier re-applies the whole consensus-committed tail instead.
	estart := time.Now()
	healthy := true
	for _, pt := range flushed {
		if !healthy {
			p.abort(pt, fmt.Errorf("mysql: engine commit order broken by concurrent demotion"))
			continue
		}
		healthy = p.engineCommit(pt)
	}
	p.maybeSync()
	p.engineBusyNs.Add(time.Since(estart).Nanoseconds())
}

// maxCoalescedSyncs bounds how many consecutive commit groups may defer
// the engine WAL sync: skipping never loses an acked write (see
// maybeSync), but every skipped sync widens the recovery replay window,
// so a busy pipeline still fsyncs the engine at least once per this many
// groups.
const maxCoalescedSyncs = 64

// maybeSync coalesces the per-group engine WAL sync: while any other
// group holds an in-flight slot (mid-flush or queued behind the
// committer), the sync is deferred to the burst's last group, whose own
// maybeSync covers everything written before it (and the engine
// additionally no-ops the call when nothing was written since the
// previous sync). Deferring is safe because the engine WAL fsync bounds
// recovery replay, not durability — the binlog is the durability source
// (§3.4) and anything the engine loses in a crash is re-applied from
// it. safePurgeLimit is unaffected: it reads the engine's flushed cursor
// through FlushWAL, which forces a real flush of its own. At depth 1
// this group's own slot is the only one, so the serial pipeline syncs
// every group exactly as before.
func (p *pipeline) maybeSync() {
	// The committer runs this while the group's own slot is still held, so
	// > 1 means another group is in flight behind or ahead of us.
	if len(p.slots) > 1 && p.skippedSyncs < maxCoalescedSyncs {
		p.skippedSyncs++
		p.syncsCoalesced.Add(1)
		return
	}
	p.skippedSyncs = 0
	_ = p.s.engine.Sync()
}

// abort rolls the transaction back (idempotent: a concurrent demotion may
// have rolled it back already) and reports the failure to the client.
func (p *pipeline) abort(pt *pendingTxn, err error) {
	pt.txn.Rollback()
	p.txnsAborted.Add(1)
	pt.done <- err
}

// engineCommit commits one transaction to the engine, reporting whether
// the commit actually happened.
func (p *pipeline) engineCommit(pt *pendingTxn) bool {
	// Commit stage: proposal accepted → pipeline releases the transaction
	// to the engine (consensus wait plus in-group commit sequencing).
	var t0 time.Time
	if pt.span != nil {
		pt.span.Observe(trace.StageCommit, time.Since(pt.proposedAt))
		t0 = time.Now()
	}
	if err := pt.txn.Commit(pt.op); err != nil {
		pt.done <- err
		return false
	}
	if pt.span != nil {
		pt.span.Observe(trace.StageEngineCommit, time.Since(t0))
		pt.span.Finish("primary")
	}
	p.txnsCommitted.Add(1)
	pt.done <- nil
	// The primary's applier is stopped; reads waiting in WaitForApplied
	// learn about engine progress from here.
	p.s.applier.progress()
	return true
}

// fail poisons the pipeline (crash/shutdown): queued transactions abort,
// future commits are rejected, and both loops exit once unblocked (the
// consensus layer fails any in-flight stage wait on crash/demotion).
func (p *pipeline) fail(err error) {
	p.mu.Lock()
	if p.failed == nil {
		p.failed = err
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	p.quitOnce.Do(func() { close(p.quit) })
}

// failErr returns the poison error (ErrCrashed if fail raced and lost).
func (p *pipeline) failErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.failed != nil {
		return p.failed
	}
	return ErrCrashed
}

// PipelineStatus is the externally visible state of the primary commit
// pipeline: depth and occupancy of the flusher/committer overlap,
// group-size distribution and per-stage busy time, surfaced through
// Server.PipelineStatus and adminapi /status.
type PipelineStatus struct {
	// Depth is the configured in-flight group bound (1 = serial).
	Depth int `json:"depth"`
	// InFlight is the number of groups currently proposed but not yet
	// engine-committed (instantaneous occupancy, ≤ Depth).
	InFlight int `json:"in_flight"`
	// QueueLen is the number of client transactions waiting to be drained
	// into a group.
	QueueLen int `json:"queue_len,omitempty"`
	// GroupsProposed counts groups flushed through ProposeTransactionBatch
	// since server start.
	GroupsProposed int64 `json:"groups_proposed,omitempty"`
	// TxnsCommitted / TxnsAborted count pipeline outcomes.
	TxnsCommitted int64 `json:"txns_committed,omitempty"`
	TxnsAborted   int64 `json:"txns_aborted,omitempty"`
	// GroupSizeMean / GroupSizeP95 / GroupSizeMax digest the group-size
	// histogram (transactions per flushed group).
	GroupSizeMean int64 `json:"group_size_mean,omitempty"`
	GroupSizeP95  int64 `json:"group_size_p95,omitempty"`
	GroupSizeMax  int64 `json:"group_size_max,omitempty"`
	// FlushBusyNs / QuorumBusyNs / EngineBusyNs are cumulative
	// nanoseconds each stage spent occupied (flusher in propose+durable
	// wait, committer in quorum wait, committer in engine commit).
	FlushBusyNs  int64 `json:"flush_busy_ns,omitempty"`
	QuorumBusyNs int64 `json:"quorum_busy_ns,omitempty"`
	EngineBusyNs int64 `json:"engine_busy_ns,omitempty"`
	// SyncsCoalesced counts engine WAL syncs skipped because more groups
	// were queued behind the committer; EngineSyncs / EngineNoopSyncs are
	// the engine's own sync accounting (performed vs clean no-op).
	SyncsCoalesced  int64 `json:"syncs_coalesced,omitempty"`
	EngineSyncs     int64 `json:"engine_syncs,omitempty"`
	EngineNoopSyncs int64 `json:"engine_noop_syncs,omitempty"`
}

// status snapshots the pipeline's observable state.
func (p *pipeline) status() PipelineStatus {
	p.mu.Lock()
	queueLen := len(p.queue)
	p.mu.Unlock()
	sum := p.groupSizes.Summarize()
	st := PipelineStatus{
		Depth:          p.depth,
		InFlight:       int(p.inflightGroups.Load()),
		QueueLen:       queueLen,
		GroupsProposed: p.groupsProposed.Load(),
		TxnsCommitted:  p.txnsCommitted.Load(),
		TxnsAborted:    p.txnsAborted.Load(),
		GroupSizeMean:  sum.Mean,
		GroupSizeP95:   sum.P95,
		GroupSizeMax:   sum.Max,
		FlushBusyNs:    p.flushBusyNs.Load(),
		QuorumBusyNs:   p.quorumBusyNs.Load(),
		EngineBusyNs:   p.engineBusyNs.Load(),
		SyncsCoalesced: p.syncsCoalesced.Load(),
	}
	st.EngineSyncs, st.EngineNoopSyncs = p.s.engine.SyncStats()
	return st
}
