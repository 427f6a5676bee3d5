package raft

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"myraft/internal/clock"
	"myraft/internal/opid"
	"myraft/internal/quorum"
	"myraft/internal/trace"
	"myraft/internal/transport"
	"myraft/internal/wire"
)

// peerState is the leader's replication bookkeeping for one peer. All
// replica log bookkeeping stays in the leader even with Proxying, keeping
// the protocol effectively standard Raft from a safety perspective
// (§4.2.1).
type peerState struct {
	next    uint64 // next entry index to send
	match   uint64 // highest index known replicated
	lastAck time.Time
	ackSeq  uint64 // newest heartbeat round this peer has echoed (lease.go)
	// Snapshot catch-up transfer cursor (snapshot.go): while snapPending,
	// the peer receives checkpoint chunks instead of AppendEntries.
	snapPending bool
	snapOffset  uint64
	snapAnchor  opid.OpID
	// scratch is the reusable entry buffer for sendAppend: building each
	// (re)send into a fresh slice allocated per message was measurable on
	// the hot path.
	scratch []wire.LogEntry
}

// pendingProxy is a proxied AppendEntries whose payload the final proxy
// could not yet reconstitute from its local log (§4.2.1).
type pendingProxy struct {
	req      *wire.AppendEntriesReq
	nextHop  wire.NodeID
	deadline time.Time
}

// Node is a MyRaft consensus participant.
type Node struct {
	cfg   Config
	clk   clock.Clock
	tr    Transport
	log   LogStore
	cb    Callbacks
	cache *entryCache
	store *stateStore
	rng   *rand.Rand

	// Everything below is owned by the run loop.
	role     Role
	term     uint64
	votedFor wire.NodeID
	leader   wire.NodeID

	lastLeaderRegion  wire.Region
	lastLeaderTerm    uint64
	lastLeaderContact time.Time
	contactLeader     wire.NodeID // the leader lastLeaderContact heard from

	// members is the active membership and voters its cached voter layout
	// (both replaced together by setMembers); matchScratch and ackScratch
	// are the reusable per-member vectors of matchVector and ackVector.
	members      wire.Config
	voters       *quorum.Voters
	matchScratch []uint64
	ackScratch   []uint64
	confHistory  []confVersion

	commitIndex uint64
	lastOpID    opid.OpID
	firstIndex  uint64

	peers    map[wire.NodeID]*peerState
	campaign *campaignState
	mock     *mockState
	transfer *transferState
	override quorum.Strategy // quorum fixer override; nil normally

	// routes caches cfg.Route per peer for the current membership;
	// selfPath is the one-hop ReturnPath every AppendEntries starts with;
	// planScratch is broadcastAppend's reusable plan buffer.
	routes      map[wire.NodeID][]wire.NodeID
	selfPath    []wire.NodeID
	planScratch []appendPlan

	waiters      []commitWaiter
	pendingProxy []pendingProxy

	// Asynchronous durability pipeline (durability.go): the off-loop log
	// writer, this node's durable cursor (its own gated "match" vote),
	// blocked WaitDurable calls, and the follower's owed durability ack.
	writer         *logWriter
	selfMatch      uint64 // highest locally durable (fsynced) index
	durableWaiters []commitWaiter
	pendingAck     *durableAck

	// notifier delivers OnCommitAdvance callbacks off the event loop with
	// latest-wins coalescing (notify.go).
	notifier *commitNotifier

	// Write-path tracing (internal/trace): tracer is shared with the mysql
	// server of the same member (nil when untraced); spans holds the
	// sampled leader proposals still waiting for the commit marker, keyed
	// by log index, so setCommitIndex can observe their replicate stage.
	tracer *trace.Tracer
	spans  map[uint64]proposedSpan

	// Snapshot catch-up state (snapshot.go): snapOp is the anchor the log
	// was last reset to (termAt answers for it even though no entry exists
	// at that index); snapCache/snapFetching are the leader's cached
	// provider checkpoint; snapRecv is the follower's receive buffer.
	snapOp       opid.OpID
	snapCache    *Snapshot
	snapFetching bool
	snapRecv     snapRecvState
	snapMet      snapMetrics

	electionDeadline time.Time
	noOpIndex        uint64 // index of this leadership's No-Op entry
	needsBroadcast   bool   // coalesces broadcasts across queued proposals

	// Read-path state (lease.go): heartbeat-round leadership confirmation
	// for ReadIndex and the leader lease for LeaseRead.
	hbSeq          uint64    // last round opened (monotonic across terms)
	confirmedSeq   uint64    // newest quorum-confirmed round
	hbRounds       []hbRound // in-flight rounds, oldest first
	readWaiters    []readWaiter
	readRoundArmed bool // a pending flush broadcast will serve new readers
	lease          leaseTracker

	api  chan func()
	stop chan struct{}
	done chan struct{}
}

// campaignState tracks an in-flight (pre-)election.
type campaignState struct {
	kind  wire.VoteKind
	term  uint64 // term being campaigned for
	votes map[wire.NodeID]bool
	// intersect collects the last-known-leader regions reported by
	// granting voters (FlexiRaft voting history, §4.1); the election
	// quorum must hold a majority in each.
	intersect map[wire.Region]bool
}

// mockState tracks a mock election run on behalf of a transferring leader
// (§4.3).
type mockState struct {
	asker     wire.NodeID
	snapshot  opid.OpID
	votes     map[wire.NodeID]bool
	rejected  bool
	reason    string
	deadline  time.Time
	intersect map[wire.Region]bool
}

// NewNode creates a node. Call Start to boot it.
func NewNode(cfg Config, log LogStore, cb Callbacks, tr Transport, clk clock.Clock) (*Node, error) {
	cfg = cfg.withDefaults()
	if clk == nil {
		clk = clock.Real()
	}
	if cb == nil {
		cb = NopCallbacks{}
	}
	store, err := newStateStore(cfg.StateDir)
	if err != nil {
		return nil, err
	}
	hs, err := store.load()
	if err != nil {
		return nil, err
	}
	n := &Node{
		cfg:      cfg,
		clk:      clk,
		tr:       tr,
		log:      log,
		cb:       cb,
		cache:    newEntryCache(cacheCapacity),
		store:    store,
		rng:      rand.New(rand.NewSource(int64(len(cfg.ID)) + int64(hashID(cfg.ID)))),
		role:     RoleFollower,
		term:     hs.Term,
		votedFor: hs.VotedFor,
		peers:    make(map[wire.NodeID]*peerState),
		selfPath: []wire.NodeID{cfg.ID},
		api:      make(chan func(), 256),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		lease:    leaseTracker{duration: cfg.LeaseDuration, maxSkew: cfg.MaxClockSkew},
		tracer:   cfg.Tracer,
		spans:    make(map[uint64]proposedSpan),
	}
	n.writer = newLogWriter(log, cfg, newDurMetrics())
	n.notifier = newCommitNotifier(n.cb)
	return n, nil
}

func hashID(id wire.NodeID) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(id); i++ {
		h = (h ^ uint32(id[i])) * 16777619
	}
	return h
}

// Start boots the node with the given bootstrap membership. If the log
// already contains config entries (recovered state), the newest one wins
// over the bootstrap config. Start also rebuilds the membership history
// and tail state from the log.
func (n *Node) Start(bootstrap wire.Config) error {
	if err := n.cfg.validate(); err != nil {
		return err
	}
	n.setMembers(bootstrap.Clone())
	n.confHistory = []confVersion{{index: 0, cfg: n.members.Clone()}}
	n.lastOpID = n.log.LastOpID()
	n.firstIndex = n.log.FirstIndex()
	// Recover the snapshot anchor from stores that persist one (the
	// binlog): after a restart the consistency check at the snapshot
	// boundary must keep answering for the anchor's term.
	if a, ok := n.log.(interface{ SnapshotAnchor() opid.OpID }); ok {
		n.snapOp = a.SnapshotAnchor()
	}
	// The current term can never trail the log tail's term. This matters
	// when adopting a log produced outside Raft (the enable-raft rollout
	// imports semi-sync binlogs whose entries carry promotion eras).
	if n.lastOpID.Term > n.term {
		n.term = n.lastOpID.Term
		n.votedFor = ""
		n.persistHardState()
	}

	// Recover membership from config entries already in the log and warm
	// the entry cache. Stores that support sequential scans (the binlog)
	// are scanned file-by-file; others are read entry-by-entry.
	var scanErr error
	visit := func(e *wire.LogEntry) bool {
		if e.Kind == wire.EntryType(entryConfigKind) {
			cfg, err := wire.DecodeConfig(e.Payload)
			if err != nil {
				scanErr = fmt.Errorf("raft: corrupt config entry %d: %w", e.OpID.Index, err)
				return false
			}
			n.setMembers(cfg)
			n.confHistory = append(n.confHistory, confVersion{index: e.OpID.Index, cfg: cfg.Clone()})
		}
		n.cache.add(e)
		return true
	}
	if scanner, ok := n.log.(interface {
		ScanFrom(from uint64, fn func(*wire.LogEntry) bool) error
	}); ok && n.firstIndex != 0 {
		if err := scanner.ScanFrom(n.firstIndex, visit); err != nil {
			return fmt.Errorf("raft: start scan: %w", err)
		}
	} else {
		for idx := n.firstIndex; idx != 0 && idx <= n.lastOpID.Index; idx++ {
			e, err := n.log.Entry(idx)
			if err != nil {
				return fmt.Errorf("raft: start scan: %w", err)
			}
			if !visit(e) {
				break
			}
		}
	}
	if scanErr != nil {
		return scanErr
	}
	n.resetElectionDeadline()
	// Everything recovered from disk is durable; the writer's cursors and
	// this node's durable "match" vote start at the recovered tail.
	n.writer.init(n.lastOpID.Index)
	n.selfMatch = n.lastOpID.Index
	go n.writer.run()
	go n.notifier.run()
	// The loop's timer is armed here rather than in run, so its first
	// tick and the election deadline both count from Start.
	tickEvery := n.cfg.HeartbeatInterval / 2
	if tickEvery <= 0 {
		tickEvery = time.Millisecond
	}
	go n.run(n.clk.NewTimer(tickEvery), tickEvery, n.clk.Now().Add(tickEvery))
	return nil
}

// Stop terminates the node's event loop.
func (n *Node) Stop() {
	select {
	case <-n.stop:
		return
	default:
	}
	close(n.stop)
	<-n.done
}

// entry kind constants mirrored from the binlog package (raft must not
// import binlog; the plugin owns the mapping, and these values are part
// of the on-disk format so they are stable).
const (
	entryNormalKind = 1
	entryNoOpKind   = 2
	entryConfigKind = 3
	entryRotateKind = 4
)

// run is the event loop. One timer drives both the periodic work, on a
// fixed grid of tickEvery from nextTick, and the election deadline: it
// fires at the next tick, or at the deadline when that falls first, so a
// voter campaigns when its deadline falls due rather than at the tick
// after, and voters whose deadlines differ do not campaign in the same
// tick and split the vote. resetElectionDeadline needs no timer work: a
// reset deadline is at least one heartbeat away, past the next tick, so
// the AppendEntries that move it never touch the timer.
func (n *Node) run(timer clock.Timer, tickEvery time.Duration, nextTick time.Time) {
	defer func() {
		// Drain the log writer (final group fsync) and flush the last
		// commit notification before reporting the node fully stopped.
		n.writer.stop()
		n.notifier.stop()
		close(n.done)
	}()
	defer timer.Stop()
	var lastHeartbeat time.Time
	for {
		select {
		case <-n.stop:
			n.failWaiters(ErrStopped)
			n.failReadWaiters(ErrStopped)
			n.failDurableWaiters(ErrStopped)
			return
		case <-n.writer.notify:
			n.onDurableAdvance()
		case fn := <-n.api:
			fn()
			// Drain queued API calls so concurrent proposals coalesce
			// into a single AppendEntries broadcast below.
			for drained := false; !drained; {
				select {
				case fn := <-n.api:
					fn()
				default:
					drained = true
				}
			}
		case env := <-n.tr.Recv():
			n.handleMessage(env)
		case <-timer.C():
			now := n.clk.Now()
			if !now.Before(nextTick) {
				for !nextTick.After(now) {
					nextTick = nextTick.Add(tickEvery)
				}
				if n.role == RoleLeader {
					if now.Sub(lastHeartbeat) >= n.cfg.HeartbeatInterval {
						lastHeartbeat = now
						n.broadcastAppend()
					}
					n.maybeAutoStepDown(now)
				}
				n.tickProxies(now)
				n.tickMock(now)
				n.tickTransfer(now)
			}
			canCampaign := n.role != RoleLeader && n.isVoter(n.cfg.ID)
			if canCampaign && !now.Before(n.electionDeadline) {
				n.startCampaign(wire.VotePre) // moves the deadline on
			}
			wake := nextTick
			if canCampaign && n.electionDeadline.Before(wake) {
				wake = n.electionDeadline
			}
			timer.Reset(wake.Sub(now))
		}
		// Flush one coalesced broadcast for all proposals accepted in
		// this loop pass.
		if n.needsBroadcast {
			n.needsBroadcast = false
			if n.role == RoleLeader {
				n.broadcastAppend()
			}
		}
	}
}

// postDonePool recycles the per-call completion channels of post: every
// proposal, status probe and wait registration posts onto the event loop,
// so under load the one-shot channel allocation was a measurable slice of
// the propose path. Channels are buffered (capacity 1) so the event loop
// signals completion without blocking, and a channel returns to the pool
// only on paths where it is provably empty again.
var postDonePool = sync.Pool{New: func() any { return make(chan struct{}, 1) }}

// post runs fn on the event loop and waits for completion. Once enqueued,
// post only returns after fn has run or after the loop has fully exited
// (in which case fn will never run): callers may therefore safely read
// variables fn writes whenever post returns nil, and a non-nil error
// guarantees fn is not running concurrently.
func (n *Node) post(fn func()) error {
	done := postDonePool.Get().(chan struct{})
	select {
	case n.api <- func() { fn(); done <- struct{}{} }:
	case <-n.stop:
		postDonePool.Put(done) // never enqueued: still empty
		return ErrStopped
	}
	select {
	case <-done:
		postDonePool.Put(done)
		return nil
	case <-n.done:
		// The loop has exited; fn either completed just before exit or
		// will never run (no fn executes after the loop returns, so the
		// channel's state is settled by now).
		select {
		case <-done:
			postDonePool.Put(done)
			return nil
		default:
			postDonePool.Put(done) // fn will never run: still empty
			return ErrStopped
		}
	}
}

// resetElectionDeadline randomizes the next election trigger: the paper's
// production tuning is ElectionTimeoutTicks (3) missed heartbeats plus up
// to two intervals of jitter to avoid split votes.
func (n *Node) resetElectionDeadline() {
	base := time.Duration(n.cfg.ElectionTimeoutTicks) * n.cfg.HeartbeatInterval
	jitter := time.Duration(n.rng.Float64() * 2 * float64(n.cfg.HeartbeatInterval))
	n.electionDeadline = n.clk.Now().Add(base + jitter + n.cfg.ElectionTimeoutBias)
}

// maxElectionTimeout is the longest timeout resetElectionDeadline draws
// (bias aside): ElectionTimeoutTicks intervals plus two of jitter.
func (n *Node) maxElectionTimeout() time.Duration {
	return time.Duration(n.cfg.ElectionTimeoutTicks+2) * n.cfg.HeartbeatInterval
}

// noteLeaderContact records a message from the current leader: it holds
// off this node's election and is what pre-vote stickiness and
// PromoteInfo.PrevLeader read.
func (n *Node) noteLeaderContact(leader wire.NodeID) {
	n.leader = leader
	n.contactLeader = leader
	n.lastLeaderContact = n.clk.Now()
	n.resetElectionDeadline()
}

func (n *Node) strategy() quorum.Strategy {
	if n.override != nil {
		return n.override
	}
	return n.cfg.Strategy
}

// persistHardState saves term and vote; failures are fatal to safety, so
// the node keeps running but will refuse to vote again this term anyway —
// the error is surfaced for logging by callers that care.
func (n *Node) persistHardState() {
	_ = n.store.save(hardState{Term: n.term, VotedFor: n.votedFor})
}

// termAt returns the term of the log entry at index (0 for index 0),
// consulting the cache first and the log store second.
func (n *Node) termAt(index uint64) (uint64, bool) {
	if index == 0 {
		return 0, true
	}
	if index == n.snapOp.Index {
		// The snapshot boundary: no entry exists at the anchor index, but
		// the install recorded its term (snapshot.go).
		return n.snapOp.Term, true
	}
	if t, ok := n.cache.termAt(index); ok {
		return t, true
	}
	if index > n.lastOpID.Index {
		return 0, false
	}
	e, ok := n.storeEntry(index)
	if !ok {
		return 0, false
	}
	return e.OpID.Term, true
}

// entryAt reads the entry at index from cache or the log store. The
// payload is shared with the log, not copied (see LogStore.Append).
func (n *Node) entryAt(index uint64) (wire.LogEntry, bool) {
	if e, ok := n.cache.get(index); ok {
		return e, true
	}
	e, ok := n.storeEntry(index)
	if !ok {
		return wire.LogEntry{}, false
	}
	return *e, true
}

// metaAt returns the header-only form of the entry at index (Payload
// nil). The proxy send path uses it: PROXY_OPs carry no payload on the
// wire, so fetching metadata skips payload copies entirely.
func (n *Node) metaAt(index uint64) (wire.LogEntry, bool) {
	if meta, ok := n.cache.meta(index); ok {
		return meta, true
	}
	e, ok := n.storeEntry(index)
	if !ok {
		return wire.LogEntry{}, false
	}
	meta := *e
	meta.Payload = nil
	return meta, true
}

// storeEntry reads index from the log store, retrying once after a writer
// drain when the entry is within the in-memory tail: it may still be
// sitting in the writer's queue and not yet visible to the store.
func (n *Node) storeEntry(index uint64) (*wire.LogEntry, bool) {
	e, err := n.log.Entry(index)
	if err != nil && index <= n.lastOpID.Index {
		if n.writer.drainAppends() != nil {
			return nil, false
		}
		e, err = n.log.Entry(index)
	}
	if err != nil {
		return nil, false
	}
	return e, true
}

// noteRole reports the current role/term to the OnRoleChange hook. Called
// on the event loop after every transition.
func (n *Node) noteRole() {
	if n.cfg.OnRoleChange != nil {
		n.cfg.OnRoleChange(RoleChange{ID: n.cfg.ID, Term: n.term, Role: n.role, Leader: n.leader})
	}
}

// handleMessage dispatches an incoming envelope.
func (n *Node) handleMessage(env transport.Envelope) {
	switch msg := env.Msg.(type) {
	case *wire.AppendEntriesReq:
		n.handleAppendReq(env.From, msg)
	case *wire.AppendEntriesResp:
		n.handleAppendResp(msg)
	case *wire.RequestVoteReq:
		n.handleVoteReq(msg)
	case *wire.RequestVoteResp:
		n.handleVoteResp(msg)
	case *wire.StartElection:
		n.handleStartElection(msg)
	case *wire.MockElectionResult:
		n.handleMockResult(msg)
	case *wire.InstallSnapshotReq:
		n.handleSnapshotReq(msg)
	case *wire.InstallSnapshotResp:
		n.handleSnapshotResp(msg)
	}
}

// becomeFollower transitions to follower at the given term. A leader
// being demoted triggers the MySQL demotion orchestration (§3.3).
func (n *Node) becomeFollower(term uint64, leader wire.NodeID) {
	wasLeader := n.role == RoleLeader
	n.role = RoleFollower
	if term > n.term {
		n.term = term
		n.votedFor = ""
		n.persistHardState()
	}
	n.leader = leader
	n.campaign = nil
	if n.transfer != nil {
		n.finishTransfer(ErrTransferFailed)
	}
	n.resetElectionDeadline()
	if wasLeader {
		n.failWaiters(ErrLeadershipLost)
		n.failReadWaiters(ErrLeadershipLost)
		n.resetReadState()
		// Sampled proposals of the lost leadership will never see this
		// node's commit marker advance for them; drop their replicate
		// tracking (other stages they already observed remain recorded).
		clear(n.spans)
		n.peers = make(map[wire.NodeID]*peerState)
		n.snapCache = nil // per-leadership; an in-flight fetch self-voids
		term := n.term
		go n.cb.OnDemote(term)
	}
	n.noteRole()
}

// becomeLeader transitions to leader: initialize peer bookkeeping, append
// the leadership-assertion No-Op (§3.3 promotion step 1), replicate, and
// kick off the promotion orchestration.
func (n *Node) becomeLeader() {
	n.role = RoleLeader
	n.leader = n.cfg.ID
	n.lastLeaderRegion = n.cfg.Region
	n.lastLeaderTerm = n.term
	n.campaign = nil
	n.pendingAck = nil           // any owed follower durability ack is void now
	n.snapRecv = snapRecvState{} // a half-received snapshot is void now
	n.peers = make(map[wire.NodeID]*peerState)
	now := n.clk.Now()
	for _, m := range n.members.Members {
		if m.ID == n.cfg.ID {
			continue
		}
		n.peers[m.ID] = &peerState{next: n.lastOpID.Index + 1, lastAck: now}
	}
	noop := &wire.LogEntry{
		OpID: opid.OpID{Term: n.term, Index: n.lastOpID.Index + 1},
		Kind: entryNoOpKind,
	}
	if err := n.appendLocal(noop, nil); err != nil {
		// The log rejected our no-op; we cannot function as leader.
		n.becomeFollower(n.term, "")
		return
	}
	n.noOpIndex = noop.OpID.Index
	// LeaseGuard deferral: any lease from a previous leadership is void;
	// this term's lease starts only with its first quorum-confirmed round.
	n.resetReadState()
	n.advanceLeaderCommit()
	n.broadcastAppend()
	n.noteRole()
	info := PromoteInfo{Term: n.term, NoOpIndex: n.noOpIndex, PrevLeader: n.contactLeader}
	go n.cb.OnPromote(info)
}

// --- public API (all methods post onto the event loop) ---

// Status snapshots the node state.
func (n *Node) Status() Status {
	var st Status
	n.post(func() {
		st = Status{
			ID:             n.cfg.ID,
			Role:           n.role,
			Term:           n.term,
			Leader:         n.leader,
			LastOpID:       n.lastOpID,
			CommitIndex:    n.commitIndex,
			FirstIndex:     n.firstIndex,
			SnapshotAnchor: n.snapOp,
			DurableIndex:   n.selfMatch,
			Config:         n.members.Clone(),
			Transferring:   n.transfer != nil,
		}
		if n.role == RoleLeader {
			st.Match = make(map[wire.NodeID]uint64, len(n.peers)+1)
			st.Match[n.cfg.ID] = n.selfMatch
			for id, ps := range n.peers {
				st.Match[id] = ps.match
			}
			st.RegionWatermarks = n.voters.RegionWatermarks(n.matchVector())
			st.LeaseHeld = n.lease.valid(n.clk.Now())
			st.LeaseExpiry = n.lease.expiry()
		}
	})
	return st
}

// CampaignNow forces an immediate real election, skipping pre-vote. The
// Quorum Fixer uses it (with ForceQuorum) to promote a chosen entity
// (§5.3), and tests use it to avoid waiting out election timeouts.
func (n *Node) CampaignNow() {
	n.post(func() {
		if n.role != RoleLeader {
			n.startCampaign(wire.VoteReal)
		}
	})
}

// maybeAutoStepDown relinquishes leadership when the data-commit quorum
// has been unreachable for AutoStepDownAfter (optional extension; see
// Config.AutoStepDownAfter).
func (n *Node) maybeAutoStepDown(now time.Time) {
	if n.cfg.AutoStepDownAfter <= 0 {
		return
	}
	acks := map[wire.NodeID]bool{n.cfg.ID: true}
	for id, ps := range n.peers {
		if now.Sub(ps.lastAck) <= n.cfg.AutoStepDownAfter {
			acks[id] = true
		}
	}
	if n.strategy().DataCommitSatisfied(n.members, n.cfg.Region, acks) {
		return
	}
	// The quorum is gone: step down so clients fail fast and a healthier
	// member (or a healed partition) can take over.
	n.becomeFollower(n.term, "")
}

// ID returns the node's identity.
func (n *Node) ID() wire.NodeID { return n.cfg.ID }

// Region returns the node's region.
func (n *Node) Region() wire.Region { return n.cfg.Region }
