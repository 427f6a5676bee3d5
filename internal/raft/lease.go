package raft

// lease.go holds the consensus-side primitives of the read path
// (internal/readpath): heartbeat-round leadership confirmation for
// ReadIndex reads and the clock-skew-guarded leader lease for LeaseRead.
//
// Every AppendEntries broadcast starts a numbered "read round"
// (wire.AppendEntriesReq.ReadSeq); followers echo the number, and when
// the echoes satisfy the data-commit quorum — the same FlexiRaft strategy
// that commits entries — the round start time becomes proof that this
// node was still the leader at that instant. ReadIndex waits for one such
// round started after the read arrived; LeaseRead serves locally while
// the newest confirmed round is younger than the lease duration.

import (
	"context"
	"time"

	"myraft/internal/quorum"
)

// leaseTracker is the leader-lease clock arithmetic, kept free of Node
// state so the clock-skew guard can be tested against a fake clock.
//
// The lease is anchored at the START of the newest quorum-confirmed
// heartbeat round, not at ack receipt: the conservative anchor means the
// lease can only under-promise. Validity subtracts the configured
// maximum clock skew, so a follower whose clock runs ahead by up to
// maxSkew still times out the old leader (and elects a new one) no
// earlier than this lease admits.
type leaseTracker struct {
	duration time.Duration
	maxSkew  time.Duration
	start    time.Time
	held     bool
}

// renew extends the lease from the given round start (monotone: an
// out-of-order older confirmation never shortens the lease).
func (lt *leaseTracker) renew(roundStart time.Time) {
	if !lt.held || roundStart.After(lt.start) {
		lt.start = roundStart
		lt.held = true
	}
}

// expiry returns when the lease stops being safe to serve from,
// accounting for clock skew. Zero time when the lease has never been
// granted.
func (lt *leaseTracker) expiry() time.Time {
	if !lt.held {
		return time.Time{}
	}
	return lt.start.Add(lt.duration - lt.maxSkew)
}

// valid reports whether the lease may serve reads at the given instant.
// A skew bound at or above the lease duration makes the lease never
// valid — misconfiguration degrades to ReadIndex, not to unsafety.
func (lt *leaseTracker) valid(now time.Time) bool {
	return lt.held && lt.maxSkew < lt.duration && now.Before(lt.expiry())
}

// reset drops the lease (leader change, per LeaseGuard: a lease never
// carries across terms — the new leader earns its own from current-term
// quorum acks, and a deposed leader stops serving immediately).
func (lt *leaseTracker) reset() { lt.held = false }

// hbRound is one in-flight leadership-confirmation round.
type hbRound struct {
	seq uint64
	at  time.Time // broadcast start: the instant leadership is proven for
}

// readResult resolves one ReadIndex wait.
type readResult struct {
	index uint64
	err   error
}

// readWaiter is a blocked ReadIndex call: it resolves once round seq is
// quorum-confirmed AND the commit marker covers index.
type readWaiter struct {
	seq   uint64
	index uint64
	ch    chan readResult
}

// maxTrackedRounds bounds the unconfirmed-round history; a leader that
// cannot confirm rounds (partitioned) stops accumulating them.
const maxTrackedRounds = 1024

// beginReadRound opens a new confirmation round; broadcastAppend calls it
// so every heartbeat doubles as a lease renewal / ReadIndex confirmation.
func (n *Node) beginReadRound() {
	n.hbSeq++
	n.hbRounds = append(n.hbRounds, hbRound{seq: n.hbSeq, at: n.clk.Now()})
	if len(n.hbRounds) > maxTrackedRounds {
		n.hbRounds = append(n.hbRounds[:0], n.hbRounds[len(n.hbRounds)-maxTrackedRounds:]...)
	}
}

// advanceReadRounds finds the newest round whose echoes satisfy the
// data-commit quorum, renews the lease from its start time, and resolves
// ReadIndex waits. Called whenever an ack lands or a round begins (the
// latter settles single-voter quorums immediately).
//
// A round is confirmed when the members that echoed it or a later one
// satisfy the quorum, so the newest confirmed round number is the
// data-commit watermark of the members' echoed round numbers: the same
// computation as the commit index over match indexes, and just as
// allocation-free (quorum.CommittedIndex).
func (n *Node) advanceReadRounds() {
	if n.role != RoleLeader || len(n.hbRounds) == 0 {
		return
	}
	w := quorum.CommittedIndex(n.strategy(), n.voters, n.cfg.Region, n.ackVector())
	confirmed := -1
	for i := len(n.hbRounds) - 1; i >= 0; i-- {
		if n.hbRounds[i].seq <= w {
			confirmed = i
			break
		}
	}
	if confirmed < 0 {
		return
	}
	r := n.hbRounds[confirmed]
	n.hbRounds = append(n.hbRounds[:0], n.hbRounds[confirmed+1:]...)
	n.lease.renew(r.at)
	if r.seq > n.confirmedSeq {
		n.confirmedSeq = r.seq
	}
	n.completeReadWaiters()
}

// ackVector returns each member's newest echoed round in n.members order,
// as quorum.CommittedIndex takes it, in the node's reusable scratch
// slice. This node vouches for every round it opened.
func (n *Node) ackVector() []uint64 {
	acks := n.ackScratch[:0]
	for _, m := range n.members.Members {
		var seq uint64
		if m.ID == n.cfg.ID {
			seq = n.hbSeq
		} else if ps := n.peers[m.ID]; ps != nil {
			seq = ps.ackSeq
		}
		acks = append(acks, seq)
	}
	n.ackScratch = acks
	return acks
}

// completeReadWaiters resolves ReadIndex waits whose round is confirmed
// and whose index is committed.
func (n *Node) completeReadWaiters() {
	if len(n.readWaiters) == 0 {
		return
	}
	kept := n.readWaiters[:0]
	for _, w := range n.readWaiters {
		if w.seq <= n.confirmedSeq && w.index <= n.commitIndex {
			w.ch <- readResult{index: w.index}
		} else {
			kept = append(kept, w)
		}
	}
	n.readWaiters = kept
}

// failReadWaiters aborts every blocked ReadIndex wait with err.
func (n *Node) failReadWaiters(err error) {
	for _, w := range n.readWaiters {
		w.ch <- readResult{err: err}
	}
	n.readWaiters = nil
}

// resetReadState drops lease and round bookkeeping on a role change.
func (n *Node) resetReadState() {
	n.lease.reset()
	n.hbRounds = nil
	n.readRoundArmed = false
}

// ReadIndex implements the linearizable read protocol: capture the commit
// index (or the leadership No-Op, whichever is higher, satisfying Raft's
// current-term-commit requirement), confirm leadership with one
// heartbeat-quorum round started after the call arrived, and return the
// index the state machine must reach before serving. Concurrent calls
// landing in the same event-loop pass share a single confirmation round.
func (n *Node) ReadIndex(ctx context.Context) (uint64, error) {
	ch := make(chan readResult, 1)
	err := n.post(func() {
		if n.role != RoleLeader {
			ch <- readResult{err: ErrNotLeader}
			return
		}
		idx := n.commitIndex
		if n.noOpIndex > idx {
			// No current-term entry committed yet: the commit marker may
			// still trail the previous leader; wait for our No-Op.
			idx = n.noOpIndex
		}
		seq := n.hbSeq + 1
		if !n.readRoundArmed {
			// Coalesce: the pass-end flush broadcast opens round seq.
			n.readRoundArmed = true
			n.needsBroadcast = true
		}
		n.readWaiters = append(n.readWaiters, readWaiter{seq: seq, index: idx, ch: ch})
	})
	if err != nil {
		return 0, err
	}
	select {
	case res := <-ch:
		return res.index, res.err
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// LeaseRead returns the commit index to read at if this node holds a
// valid leader lease right now, avoiding ReadIndex's quorum round. It
// fails with ErrLeaseExpired when the lease is unsafe (not yet earned
// this term, expired under partition, or inhibited by clock-skew
// configuration); callers fall back to ReadIndex.
func (n *Node) LeaseRead() (uint64, error) {
	var idx uint64
	var rerr error
	err := n.post(func() {
		switch {
		case n.role != RoleLeader:
			rerr = ErrNotLeader
		case n.commitIndex < n.noOpIndex:
			// Promotion not settled: same current-term-commit rule as
			// ReadIndex.
			rerr = ErrLeaseExpired
		case !n.lease.valid(n.clk.Now()):
			rerr = ErrLeaseExpired
		default:
			idx = n.commitIndex
		}
	})
	if err != nil {
		return 0, err
	}
	return idx, rerr
}
