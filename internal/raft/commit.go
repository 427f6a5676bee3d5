package raft

// commit.go is the log-append and commit pipeline: local appends through
// the async writer, tail truncation, the commit marker, and the blocking
// Propose/WaitCommitted API the mysql commit pipeline drives (§3.4).

import (
	"context"
	"time"

	"myraft/internal/gtid"
	"myraft/internal/opid"
	"myraft/internal/trace"
	"myraft/internal/wire"
)

// commitWaiter is a pipeline thread blocked in the "wait for Raft
// consensus commit" stage (§3.4). A durable waiter also needs the entry
// locally durable (WaitDurableCommit).
type commitWaiter struct {
	index   uint64
	ch      chan error
	durable bool
}

// proposedSpan is a sampled leader proposal awaiting its replicate-stage
// observation: the span plus the proposal time the stage is measured from.
type proposedSpan struct {
	sp *trace.Span
	at time.Time
}

// appendLocal hands an entry to the off-loop log writer (which appends it
// via the plugin, §3.2, and covers it with a group fsync) and updates the
// in-memory tail/cache/membership bookkeeping immediately. The entry is
// replicatable and electable at once, but is not acked — by a follower's
// MatchIndex or the leader's own commit vote — until the writer reports
// it durable (durability.go). The span, when non-nil, is a sampled
// write-path trace context that rides the queued append so the writer can
// observe the append and fsync stages.
func (n *Node) appendLocal(e *wire.LogEntry, sp *trace.Span) error {
	if err := n.writer.enqueue(e, sp); err != nil {
		return err
	}
	n.lastOpID = e.OpID
	if n.firstIndex == 0 {
		n.firstIndex = e.OpID.Index
	}
	n.cache.add(e)
	if e.Kind == entryConfigKind {
		cfg, err := wire.DecodeConfig(e.Payload)
		if err == nil {
			n.applyConfig(e.OpID.Index, cfg)
		}
	}
	return nil
}

// truncateTo removes log entries after index, rolling back membership if
// config entries were cut, and informs the plugin so GTIDs can be removed
// from all metadata (§3.3 demotion step 4).
func (n *Node) truncateTo(index uint64) error {
	// Queued appends must land before the tail is cut, and the writer's
	// cursors (plus this node's durable vote) must be clamped so stale
	// in-flight state never resurrects truncated indexes.
	if err := n.writer.drainAppends(); err != nil {
		return err
	}
	if _, err := n.log.TruncateAfter(index); err != nil {
		return err
	}
	n.writer.truncate(index)
	if n.selfMatch > index {
		n.selfMatch = index
	}
	n.failDurableWaitersAbove(index)
	for idx := range n.spans {
		if idx > index {
			delete(n.spans, idx)
		}
	}
	n.cache.truncateAfter(index)
	for len(n.confHistory) > 1 && n.confHistory[len(n.confHistory)-1].index > index {
		n.confHistory = n.confHistory[:len(n.confHistory)-1]
	}
	n.setMembers(n.confHistory[len(n.confHistory)-1].cfg.Clone())
	n.lastOpID = n.log.LastOpID()
	n.firstIndex = n.log.FirstIndex()
	return nil
}

// failWaiters aborts every blocked commit wait with err.
func (n *Node) failWaiters(err error) {
	for _, w := range n.waiters {
		w.ch <- err
	}
	n.waiters = nil
}

// notifyWaiters completes commit waits up to the new commit index.
func (n *Node) notifyWaiters() {
	if len(n.waiters) == 0 {
		return
	}
	kept := n.waiters[:0]
	for _, w := range n.waiters {
		switch {
		case w.index > n.commitIndex:
			kept = append(kept, w)
		case w.durable:
			// Committed: from here only the local fsync, a stop or a failed
			// log writer can end the wait, whatever the role.
			n.awaitDurable(w.index, w.ch)
		default:
			w.ch <- nil
		}
	}
	n.waiters = kept
}

// setCommitIndex advances the commit marker and fans out notifications.
func (n *Node) setCommitIndex(index uint64) {
	if index <= n.commitIndex {
		return
	}
	n.commitIndex = index
	// Replicate stage: proposal → quorum-covered commit marker, observed
	// for every sampled proposal the new marker covers.
	if len(n.spans) > 0 {
		now := time.Now()
		for idx, ps := range n.spans {
			if idx <= index {
				ps.sp.Observe(trace.StageReplicate, now.Sub(ps.at))
				delete(n.spans, idx)
			}
		}
	}
	n.notifyWaiters()
	n.completeReadWaiters()
	// Coalesced, latest-wins: a burst of commit advances (a follower
	// draining a backlog) collapses into few callback deliveries instead
	// of one goroutine per advance.
	n.notifier.post(index)
}

// Propose appends a client transaction to the replicated log. It returns
// the assigned OpID; the caller then blocks in WaitCommitted (stage 2 of
// the commit pipeline, §3.4). Only the leader accepts proposals. The
// payload becomes the log entry's and must not be modified afterwards
// (see LogStore.Append).
func (n *Node) Propose(payload []byte, g gtid.GTID, hasGTID bool) (opid.OpID, error) {
	return n.propose(payload, g, hasGTID, entryNormalKind)
}

// ProposeRotate replicates a log-rotation marker (FLUSH BINARY LOGS,
// §A.1).
func (n *Node) ProposeRotate() (opid.OpID, error) {
	return n.propose(nil, gtid.GTID{}, false, entryRotateKind)
}

func (n *Node) propose(payload []byte, g gtid.GTID, hasGTID bool, kind int) (opid.OpID, error) {
	var op opid.OpID
	var perr error
	err := n.post(func() {
		// Collect the span the pipeline armed just before calling in, even
		// on the error paths: an armed span must never leak to an unrelated
		// later proposal.
		sp := n.tracer.TakeArmed()
		if n.role != RoleLeader {
			perr = ErrNotLeader
			return
		}
		if n.transfer != nil && n.transfer.stage >= transferCatchup {
			perr = ErrQuiesced
			return
		}
		e := &wire.LogEntry{
			OpID:    opid.OpID{Term: n.term, Index: n.lastOpID.Index + 1},
			Kind:    wire.EntryType(kind),
			HasGTID: hasGTID,
			GTID:    g,
			Payload: payload,
		}
		if perr = n.appendLocal(e, sp); perr != nil {
			return
		}
		op = e.OpID
		if sp != nil {
			sp.SetOp(op.String())
			n.spans[op.Index] = proposedSpan{sp: sp, at: time.Now()}
		}
		n.advanceLeaderCommit()
		n.needsBroadcast = true
	})
	if err != nil {
		return opid.Zero, err
	}
	return op, perr
}

// ProposeReq is one transaction in a ProposeBatch call.
type ProposeReq struct {
	Payload []byte
	GTID    gtid.GTID
	HasGTID bool
}

// ProposeBatch appends a whole group of client transactions in a single
// event-loop post: OpIDs are assigned contiguously, every entry is handed
// to the async log writer, and ONE coalesced broadcast is armed for the
// batch. Propose pays the post round-trip, the leadership check and the
// broadcast arming once per transaction; a pipelined group-commit flusher
// pays them once per group. On a mid-batch append failure the OpIDs of
// the appended prefix are returned alongside the error — those entries
// are in the log and will replicate; everything past the prefix was not
// appended. As with Propose, each payload is the log entry's from then on
// and must not be modified.
func (n *Node) ProposeBatch(reqs []ProposeReq) ([]opid.OpID, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	var ops []opid.OpID
	var perr error
	err := n.post(func() {
		// Collect the span the pipeline armed for the group even on the
		// error paths: an armed span must never leak to an unrelated later
		// proposal.
		sp := n.tracer.TakeArmed()
		if n.role != RoleLeader {
			perr = ErrNotLeader
			return
		}
		if n.transfer != nil && n.transfer.stage >= transferCatchup {
			perr = ErrQuiesced
			return
		}
		ops = make([]opid.OpID, 0, len(reqs))
		for i := range reqs {
			// The armed span rides the batch's LAST entry: its append and
			// group fsync cover every entry before it, and the commit marker
			// reaching it commits the whole group, so observing the tail
			// observes the group.
			esp := sp
			if i != len(reqs)-1 {
				esp = nil
			}
			e := &wire.LogEntry{
				OpID:    opid.OpID{Term: n.term, Index: n.lastOpID.Index + 1},
				Kind:    wire.EntryType(entryNormalKind),
				HasGTID: reqs[i].HasGTID,
				GTID:    reqs[i].GTID,
				Payload: reqs[i].Payload,
			}
			if perr = n.appendLocal(e, esp); perr != nil {
				break
			}
			ops = append(ops, e.OpID)
			if esp != nil {
				esp.SetOp(e.OpID.String())
				n.spans[e.OpID.Index] = proposedSpan{sp: esp, at: time.Now()}
			}
		}
		if len(ops) == 0 {
			return
		}
		n.advanceLeaderCommit()
		n.needsBroadcast = true
	})
	if err != nil {
		return nil, err
	}
	return ops, perr
}

// WaitCommitted blocks until the given index is consensus committed, the
// node loses leadership/stops, or the context is done.
func (n *Node) WaitCommitted(ctx context.Context, index uint64) error {
	ch := make(chan error, 1)
	err := n.post(func() {
		if index <= n.commitIndex {
			ch <- nil
			return
		}
		// Only a leader can drive an uncommitted index to commit. A
		// waiter registered after losing leadership (the proposal raced
		// with a demotion) would hang forever: the demotion's waiter
		// flush already ran.
		if n.role != RoleLeader {
			ch <- ErrLeadershipLost
			return
		}
		n.waiters = append(n.waiters, commitWaiter{index: index, ch: ch})
	})
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

// WaitDurableCommit blocks until index is both consensus committed and
// locally durable, in one event-loop post: the commit pipeline's
// committer may engine-commit a group only then (§3.4). Until the index
// commits it fails like WaitCommitted (ErrLeadershipLost on demotion);
// once committed, like WaitDurable. Either way ErrStopped on stop.
func (n *Node) WaitDurableCommit(ctx context.Context, index uint64) error {
	ch := make(chan error, 1)
	err := n.post(func() {
		switch {
		case index <= n.commitIndex:
			n.awaitDurable(index, ch)
		case n.role != RoleLeader:
			// See WaitCommitted: a demotion's waiter flush already ran.
			ch <- ErrLeadershipLost
		case index > n.lastOpID.Index:
			ch <- ErrNotDurable // truncated away, as WaitDurable reports
		default:
			n.waiters = append(n.waiters, commitWaiter{index: index, ch: ch, durable: true})
		}
	})
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

// CommitIndex returns the current consensus commit marker.
func (n *Node) CommitIndex() uint64 {
	var idx uint64
	n.post(func() { idx = n.commitIndex })
	return idx
}
