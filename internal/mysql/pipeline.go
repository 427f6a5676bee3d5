package mysql

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"myraft/internal/gtid"
	"myraft/internal/metrics"
	"myraft/internal/opid"
	"myraft/internal/storage"
	"myraft/internal/trace"
)

// pipeline implements the 3-stage group commit of §3.4, pipelined across
// groups. Client threads enqueue prepared transactions; the stages are:
//
//   - Flush (the flusher goroutine): drain the queue into a group, assign
//     the group's GTIDs, and propose it through Raft in one batched
//     event-loop post, which assigns OpIDs and queues the binlog append.
//     The flusher hands the group to the committer and drains the queue
//     again at once; it never waits for a disk.
//   - Sync (the consensus layer's log writer, not a goroutine of this
//     type): every entry queued while an fsync is in flight shares the
//     next one, so one flush covers all groups proposed meanwhile — the
//     role MySQL's sync-stage queue plays. Replication to the quorum runs
//     beside it.
//   - Commit (the committer goroutine): wait until the group's LAST
//     entry is both locally durable and consensus-committed (the last
//     implies all), then commit the prepared transactions to the engine
//     in order and release their clients.
//
// Flusher and committer are connected by a bounded in-flight-groups
// channel: up to CommitPipelineDepth groups are proposed and not yet
// engine-committed, so the local fsync and the quorum round-trip of group
// N overlap the flush of group N+1. A slot is taken before the propose and
// returned after the engine commit, so depth 1 is the fully serial
// pipeline: no group is proposed before the previous one engine-commits.
//
// Engine commit waits for local durability even when the in-region
// followers form the quorum first: the binlog is the durability source
// (§3.4), a crash tears its unsynced tail off, and the applier restarts
// from the engine's last-committed OpID — an engine ahead of the local
// binlog would skip entries the log no longer holds.
//
// GTIDs come from a flusher-owned cursor (gtidNext). The binlog append of
// a proposed group is asynchronous, so the log's executed set may trail
// the groups in flight and cannot be re-read per group; the cursor is
// re-seeded from it only when it is known to be complete for this
// server's UUID — no group in flight — or when the Replicator changed,
// and is rewound to "last appended + 1" when a proposal appends only a
// prefix. GTIDs therefore stay unique and, absent truncation, contiguous.
//
// Ordering invariants survive the overlap because the committer stays
// single and strictly FIFO: engine commits happen in log order with no
// gaps, which the applier's restart cursor depends on (§3.3 step 5). On
// demotion mid-pipeline every queued group fails its commit-stage wait
// and re-checks the commit marker per transaction: transactions at or
// below the marker (and locally durable) are committed (they are
// consensus-committed and durable on a quorum), the rest roll back.
//
// The pipeline — not the submitting client — owns a transaction once it
// is enqueued: a client whose context expires mid-wait simply stops
// waiting, while the transaction still commits if consensus is reached
// (MySQL semantics for a disconnected client) or rolls back if consensus
// fails.
//
// The commit stage deliberately has no timeout: on a leader that cannot
// reach its quorum, commits block until the partition heals or leadership
// is lost — the paper's "consistency over availability" choice (§4.1).
// The consensus layer fails the waits on demotion, truncation, crash or
// shutdown.
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

	// gtidNext is the next GTID sequence number for this server's UUID and
	// gtidRepl the Replicator it was seeded under (flusher goroutine only;
	// see the type comment for the invariant).
	gtidNext int64
	gtidRepl Replicator

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

// commitGroup is one proposed group in flight between the flusher and the
// committer: every transaction has its OpID assigned; the group is not
// yet known to be durable or consensus-committed.
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

// flushGroup runs the flush stage for one group: acquire an in-flight
// slot, assign GTIDs, propose the whole group in one batched consensus
// round-trip, and hand it to the committer. It returns false only when the
// pipeline was poisoned before the group could be proposed (the group's
// transactions are aborted).
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
	defer func() { p.flushBusyNs.Add(time.Since(start).Nanoseconds()) }()
	// Commit-time GTID assignment for the whole group at once, from the
	// flusher's cursor. With nothing in flight every earlier group's binlog
	// append has landed (or was truncated away), so the log's executed set
	// is complete and the cursor re-seeds from it.
	if p.inflightGroups.Load() == 0 || repl != p.gtidRepl {
		p.gtidNext = p.s.log.NextGTID(p.s.opts.ServerUUID)
		p.gtidRepl = repl
	}
	reqs := make([]TxnProposal, len(group))
	for i, pt := range group {
		// Prepare encoded the payload on the client thread: the writeset
		// ahead of the row changes, so replica appliers can schedule
		// non-conflicting transactions in parallel without decoding rows.
		reqs[i] = TxnProposal{
			Payload: pt.txn.Payload(),
			GTID:    gtid.GTID{Source: p.s.opts.ServerUUID, ID: p.gtidNext + int64(i)},
		}
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
	// Only the appended prefix consumed its GTIDs; the rest are handed out
	// again.
	p.gtidNext += int64(len(ops))
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
	if sp != nil {
		last := flushed[len(flushed)-1]
		sp.Observe(trace.StagePropose, time.Since(t0))
		last.span = sp
		last.proposedAt = time.Now()
	}
	p.groupsProposed.Add(1)
	p.groupSizes.Observe(int64(len(flushed)))
	p.inflightGroups.Add(1)
	// Never blocks: a slot is held for every group in the channel and the
	// capacities match.
	p.inflight <- &commitGroup{repl: repl, txns: flushed}
	return true
}

// committer is the commit-stage loop: strictly FIFO over proposed groups,
// so the engine commit sequence is exactly the log order regardless of
// pipeline depth.
func (p *pipeline) committer() {
	defer close(p.done)
	for g := range p.inflight {
		p.commitGroup(g)
		p.inflightGroups.Add(-1)
		<-p.slots
	}
}

// commitGroup walks one proposed group through the durability and quorum
// waits and the engine commit.
func (p *pipeline) commitGroup(g *commitGroup) {
	flushed := g.txns
	last := flushed[len(flushed)-1]

	// Wait, in one consensus-layer call, for the group's last entry to be
	// locally durable — the log writer's fsync covers everything queued
	// behind it, so under load one flush resolves this wait for several
	// groups — and consensus committed. The consensus layer resolves the
	// wait on success, demotion, truncation or shutdown; there is
	// deliberately no client-side timeout here (see the type comment).
	start := time.Now()
	ctx := context.Background()
	err := g.repl.WaitDurableCommit(ctx, last.op.Index)
	p.quorumBusyNs.Add(time.Since(start).Nanoseconds())
	if err != nil {
		// The tail failed; transactions at or below the actual commit
		// marker may still be in — re-check individually so a partial
		// group is not spuriously aborted. The committed prefix still
		// waits for its own local durability (committed entries are never
		// truncated, so the wait ends with the next fsync or the log's
		// failure).
		commit := g.repl.CommitIndex()
		n := 0
		for n < len(flushed) && flushed[n].op.Index <= commit {
			n++
		}
		if n > 0 && g.repl.WaitDurableCommit(ctx, flushed[n-1].op.Index) != nil {
			n = 0
		}
		healthy := true
		for i, pt := range flushed {
			if i < n && healthy {
				healthy = p.engineCommit(pt)
			} else {
				p.abort(pt, err)
			}
		}
		return
	}

	// Storage engine commit, strictly in group (= log) order.
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
	Depth int `json:"depth" metric:"pipeline_depth"`
	// InFlight is the number of groups currently proposed but not yet
	// engine-committed (instantaneous occupancy, ≤ Depth).
	InFlight int `json:"in_flight" metric:"pipeline_inflight_groups"`
	// QueueLen is the number of client transactions waiting to be drained
	// into a group.
	QueueLen int `json:"queue_len,omitempty" metric:"pipeline_queue_len"`
	// GroupsProposed counts groups flushed through ProposeTransactionBatch
	// since server start.
	GroupsProposed int64 `json:"groups_proposed,omitempty" metric:"pipeline_groups_proposed"`
	// TxnsCommitted / TxnsAborted count pipeline outcomes.
	TxnsCommitted int64 `json:"txns_committed,omitempty" metric:"pipeline_txns_committed"`
	TxnsAborted   int64 `json:"txns_aborted,omitempty" metric:"pipeline_txns_aborted"`
	// GroupSizeMean / GroupSizeP95 / GroupSizeMax digest the group-size
	// histogram (transactions per flushed group).
	GroupSizeMean int64 `json:"group_size_mean,omitempty" metric:"pipeline_group_size_mean"`
	GroupSizeP95  int64 `json:"group_size_p95,omitempty" metric:"pipeline_group_size_p95"`
	GroupSizeMax  int64 `json:"group_size_max,omitempty" metric:"pipeline_group_size_max"`
	// FlushBusyNs / QuorumBusyNs / EngineBusyNs are cumulative
	// nanoseconds each goroutine spent occupied: the flusher assigning
	// GTIDs and proposing (it never waits for a disk), the committer
	// waiting for local durability and then the quorum, and the committer
	// in engine commit.
	FlushBusyNs  int64 `json:"flush_busy_ns,omitempty" metric:"pipeline_flush_busy_ns"`
	QuorumBusyNs int64 `json:"quorum_busy_ns,omitempty" metric:"pipeline_quorum_busy_ns"`
	EngineBusyNs int64 `json:"engine_busy_ns,omitempty" metric:"pipeline_engine_busy_ns"`
	// SyncsCoalesced counts engine WAL syncs skipped because more groups
	// were queued behind the committer; EngineSyncs / EngineNoopSyncs are
	// the engine's own sync accounting (performed vs clean no-op).
	SyncsCoalesced  int64 `json:"syncs_coalesced,omitempty" metric:"pipeline_syncs_coalesced"`
	EngineSyncs     int64 `json:"engine_syncs,omitempty" metric:"engine_syncs"`
	EngineNoopSyncs int64 `json:"engine_noop_syncs,omitempty" metric:"engine_noop_syncs"`
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
