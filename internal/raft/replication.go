package raft

import (
	"cmp"
	"slices"
	"time"

	"myraft/internal/opid"
	"myraft/internal/quorum"
	"myraft/internal/wire"
)

// broadcastAppend sends AppendEntries to every peer, batching from each
// peer's next index. It doubles as the heartbeat when a peer is caught up,
// and every broadcast opens a leadership-confirmation round (lease.go).
// Direct peers at the same position get the same request, so it is built
// once, and a batch of entries is encoded once for all of them.
func (n *Node) broadcastAppend() {
	n.beginReadRound()
	readersWaiting := n.readRoundArmed
	n.readRoundArmed = false
	all := n.planScratch[:0]
	for id, ps := range n.peers {
		p, ok := n.planAppend(id, ps)
		if !ok {
			continue
		}
		if p.route != nil {
			n.sendPlanned(ps, p)
			continue
		}
		all = append(all, p)
	}
	n.planScratch = all[:0]
	plans := all
	slices.SortFunc(plans, func(a, b appendPlan) int { return cmp.Compare(a.prev.Index, b.prev.Index) })
	for len(plans) > 0 {
		k := 1
		for k < len(plans) && plans[k].prev == plans[0].prev {
			k++
		}
		entries := n.buildBatch(n.peers[plans[0].peer], plans[0])
		var msg wire.Message = n.appendReq(plans[0], entries)
		if k > 1 && len(entries) > 0 {
			if f, err := wire.NewFrame(msg); err == nil {
				msg = f
			}
		}
		for _, p := range plans[:k] {
			n.tr.Send(p.hop, msg)
			n.advanceNext(n.peers[p.peer], entries)
		}
		plans = plans[k:]
	}
	if readersWaiting {
		// ReadIndex callers are parked on this round. A transport that
		// buffers heartbeats (transport.ShardPort coalesces them per node)
		// must ship them now, not on its next tick.
		if f, ok := n.tr.(interface{ Flush() }); ok {
			f.Flush()
		}
	}
	// A single-voter quorum is satisfied by the leader alone; settle now.
	n.advanceReadRounds()
}

// appendPlan is one AppendEntries before its entries are fetched: the
// entry it follows and how it travels.
type appendPlan struct {
	peer  wire.NodeID
	prev  opid.OpID
	hop   wire.NodeID   // first hop: the peer itself unless proxied
	route []wire.NodeID // hops after the first, ending at the peer; nil when direct
}

// sendAppend builds and transmits one AppendEntries to peer, applying the
// proxy routing policy (§4.2). The leader keeps all bookkeeping; proxied
// messages just carry PROXY_OP entries instead of payloads.
func (n *Node) sendAppend(peer wire.NodeID) {
	ps := n.peers[peer]
	if ps == nil {
		return
	}
	if p, ok := n.planAppend(peer, ps); ok {
		n.sendPlanned(ps, p)
	}
}

// sendPlanned builds and sends one planned AppendEntries on its own.
func (n *Node) sendPlanned(ps *peerState, p appendPlan) {
	entries := n.buildBatch(ps, p)
	n.tr.Send(p.hop, n.appendReq(p, entries))
	n.advanceNext(ps, entries)
}

// planAppend picks where peer's next AppendEntries starts and its route.
// It reports false when the peer gets a snapshot chunk instead.
func (n *Node) planAppend(peer wire.NodeID, ps *peerState) (appendPlan, bool) {
	if ps.snapPending {
		// Snapshot catch-up in progress: the heartbeat path re-sends the
		// current chunk instead of AppendEntries (snapshot.go).
		n.tickSnapshot(peer, ps)
		return appendPlan{}, false
	}
	next := ps.next
	if next == 0 {
		next = 1
	}
	// A peer whose next entry fell below the retained window cannot be
	// repaired from the log, even when prevIndex itself still resolves
	// (prevIndex 0, or exactly the snapshot anchor): the entries to send
	// are gone. A brand-new member joining a purged-prefix ring hits this
	// with next=1.
	floor := n.firstIndex
	if floor == 0 {
		floor = n.snapOp.Index + 1
	}
	if next < floor && n.maybeSendSnapshot(peer, ps) {
		return appendPlan{}, false
	}
	prevIndex := next - 1
	prevTerm, ok := n.termAt(prevIndex)
	if !ok {
		// The peer needs entries older than our log retains: stream an
		// engine checkpoint instead (snapshot.go). Without a provider,
		// back off to the oldest entry we do have — the pre-compaction
		// behaviour, which suffices while nothing is purged.
		if n.maybeSendSnapshot(peer, ps) {
			return appendPlan{}, false
		}
		next = n.firstIndex
		if next == 0 {
			next = 1
		}
		prevIndex = next - 1
		prevTerm, _ = n.termAt(prevIndex)
	}
	p := appendPlan{peer: peer, prev: opid.OpID{Term: prevTerm, Index: prevIndex}, hop: peer}
	if route := n.routeFor(peer); len(route) > 1 {
		p.hop, p.route = route[0], route[1:]
	}
	return p, true
}

// maxAppendBatch caps the entries in one AppendEntries message.
const maxAppendBatch = 64

// buildBatch fills the peer's scratch buffer with the entries after
// p.prev (the transport marshals synchronously, so the buffer is free
// again once Send returns). On proxied routes the wire format strips
// payloads anyway, so fetch header metadata only — no payload copies.
func (n *Node) buildBatch(ps *peerState, p appendPlan) []wire.LogEntry {
	entries := ps.scratch[:0]
	for idx := p.prev.Index + 1; idx <= n.lastOpID.Index && len(entries) < maxAppendBatch; idx++ {
		if p.route != nil {
			meta, ok := n.metaAt(idx)
			if !ok {
				break
			}
			meta.IsProxy = true
			entries = append(entries, meta)
			continue
		}
		e, ok := n.entryAt(idx)
		if !ok {
			break
		}
		entries = append(entries, e)
	}
	ps.scratch = entries
	return entries
}

func (n *Node) appendReq(p appendPlan, entries []wire.LogEntry) *wire.AppendEntriesReq {
	return &wire.AppendEntriesReq{
		Term:        n.term,
		LeaderID:    n.cfg.ID,
		PrevOpID:    p.prev,
		Entries:     entries,
		CommitIndex: n.commitIndex,
		// Individual resends reuse the current round: its start predates
		// this send, so acking it remains a conservative leadership proof.
		ReadSeq:    n.hbSeq,
		Route:      p.route,
		ReturnPath: n.selfPath,
	}
}

// advanceNext is optimistic pipelining: assume delivery and advance next;
// a rejection or the next heartbeat repairs the window.
func (n *Node) advanceNext(ps *peerState, entries []wire.LogEntry) {
	if len(entries) > 0 {
		ps.next = entries[len(entries)-1].OpID.Index + 1
	}
}

// routeFor applies the routing policy plus the route-around health check
// (§4.2.3): if the first hop has been silent too long, bypass it and send
// directly. A route of at most one hop means direct. Routes are computed
// once per peer and membership (setMembers clears them).
func (n *Node) routeFor(peer wire.NodeID) []wire.NodeID {
	if n.cfg.Route == nil {
		return nil
	}
	route, ok := n.routes[peer]
	if !ok {
		route = n.cfg.Route(n.members, n.cfg.ID, peer)
		if n.routes == nil {
			n.routes = make(map[wire.NodeID][]wire.NodeID)
		}
		n.routes[peer] = route
	}
	if len(route) > 1 {
		hop := route[0]
		if ps := n.peers[hop]; ps != nil {
			if n.clk.Now().Sub(ps.lastAck) > n.cfg.RouteAroundAfter {
				return nil
			}
		}
	}
	return route
}

// handleAppendReq processes an AppendEntries request: as a proxy hop it
// forwards (reconstituting payloads at the final hop), as the destination
// it runs the standard Raft consistency check and append.
func (n *Node) handleAppendReq(from wire.NodeID, req *wire.AppendEntriesReq) {
	if len(req.Route) > 0 {
		n.proxyForward(req)
		return
	}

	resp := &wire.AppendEntriesResp{
		Term: n.term,
		From: n.cfg.ID,
		// Echo the round number on every path: even a failed consistency
		// check acknowledges the sender's leadership at this term.
		ReadSeq: req.ReadSeq,
		Route:   respRoute(req),
	}
	if req.Term < n.term {
		resp.Success = false
		n.sendResp(resp)
		return
	}
	if req.Term > n.term || n.role != RoleFollower {
		n.becomeFollower(req.Term, req.LeaderID)
	}
	n.noteLeaderContact(req.LeaderID)
	if r := n.regionOf(req.LeaderID); r != "" {
		n.lastLeaderRegion = r
		n.lastLeaderTerm = req.Term
	}
	resp.Term = n.term

	// Consistency check on the previous entry.
	if req.PrevOpID.Index > n.lastOpID.Index {
		resp.Success = false
		resp.LastIndex = n.lastOpID.Index
		n.sendResp(resp)
		return
	}
	if prevTerm, ok := n.termAt(req.PrevOpID.Index); !ok || prevTerm != req.PrevOpID.Term {
		resp.Success = false
		if req.PrevOpID.Index > 0 {
			resp.LastIndex = req.PrevOpID.Index - 1
		}
		n.sendResp(resp)
		return
	}

	// Append new entries, truncating on conflict.
	match := req.PrevOpID.Index
	for i := range req.Entries {
		e := &req.Entries[i]
		if e.IsProxy {
			// A degraded proxy message should have dropped its entries;
			// never append payload-less ops.
			break
		}
		if e.OpID.Index <= n.lastOpID.Index {
			existing, ok := n.termAt(e.OpID.Index)
			if ok && existing == e.OpID.Term {
				match = e.OpID.Index
				continue // already have it
			}
			// Conflict: drop our divergent tail (§A.2 case 2). The
			// LogStore informs MySQL so truncated GTIDs leave metadata.
			if err := n.truncateTo(e.OpID.Index - 1); err != nil {
				resp.Success = false
				n.sendResp(resp)
				return
			}
		}
		// Followers sample their own append/fsync spans: the leader's trace
		// context does not cross the wire, but the follower's local log
		// writer is on the acked-write critical path and worth seeing.
		if err := n.appendLocal(e, n.tracer.Sample()); err != nil {
			resp.Success = false
			resp.LastIndex = n.lastOpID.Index
			n.sendResp(resp)
			return
		}
		match = e.OpID.Index
	}

	// Adopt the leader's commit marker (§3.4: piggybacked commit), capped
	// at the highest index this round actually verified: an unverified
	// local tail could still diverge from the leader's log.
	commit := req.CommitIndex
	if commit > match {
		commit = match
	}
	n.setCommitIndex(commit)

	// Serve any parked proxy reconstitution waiting for these entries.
	n.tickProxies(n.clk.Now())

	resp.Success = true
	// Ack only what is durable on disk (§3.3: a follower's vote toward
	// commit must survive its own crash). Entries still in the writer's
	// fsync queue are acked later by an unsolicited durability ack once
	// the group fsync covering them completes.
	ack := match
	if ack > n.selfMatch {
		ack = n.selfMatch
		n.armDurableAck(req.LeaderID, req.ReadSeq, match)
	}
	resp.MatchIndex = ack
	resp.LastIndex = n.lastOpID.Index
	n.sendResp(resp)
}

// respRoute computes the hop list a response must travel: the reverse of
// the request's accumulated return path, excluding the responder.
func respRoute(req *wire.AppendEntriesReq) []wire.NodeID {
	if len(req.ReturnPath) <= 1 {
		// Direct request: respond straight to the leader.
		if len(req.ReturnPath) == 1 {
			return req.ReturnPath[:1:1]
		}
		return []wire.NodeID{req.LeaderID}
	}
	out := make([]wire.NodeID, 0, len(req.ReturnPath))
	for i := len(req.ReturnPath) - 1; i >= 0; i-- {
		out = append(out, req.ReturnPath[i])
	}
	return out
}

// sendResp routes an AppendEntriesResp along its hop list.
func (n *Node) sendResp(resp *wire.AppendEntriesResp) {
	if len(resp.Route) == 0 {
		return
	}
	next := resp.Route[0]
	resp.Route = resp.Route[1:]
	n.tr.Send(next, resp)
}

// proxyForward relays a proxied AppendEntries one hop (§4.2.1). At the
// final hop it reconstitutes PROXY_OP payloads from the local log, waiting
// up to ProxyWait for entries still in flight, and degrading to a
// heartbeat if they never arrive.
func (n *Node) proxyForward(req *wire.AppendEntriesReq) {
	req.ReturnPath = append(req.ReturnPath, n.cfg.ID)
	nextHop := req.Route[0]
	if len(req.Route) > 1 {
		// Intermediate hop: pass it along untouched.
		req.Route = req.Route[1:]
		n.tr.Send(nextHop, req)
		return
	}
	req.Route = nil
	if n.reconstitute(req) {
		n.tr.Send(nextHop, req)
		return
	}
	n.pendingProxy = append(n.pendingProxy, pendingProxy{
		req:      req,
		nextHop:  nextHop,
		deadline: n.clk.Now().Add(n.cfg.ProxyWait),
	})
}

// reconstitute replaces PROXY_OP entries with payloads from the local
// log. It reports false if any entry is not yet available locally.
func (n *Node) reconstitute(req *wire.AppendEntriesReq) bool {
	for i := range req.Entries {
		e := &req.Entries[i]
		if !e.IsProxy {
			continue
		}
		local, ok := n.entryAt(e.OpID.Index)
		if !ok || local.OpID != e.OpID {
			return false
		}
		local.IsProxy = false
		req.Entries[i] = local
	}
	return true
}

// tickProxies retries parked proxy reconstitution; past the deadline the
// message degrades to a heartbeat (entries dropped, commit marker kept).
func (n *Node) tickProxies(now time.Time) {
	if len(n.pendingProxy) == 0 {
		return
	}
	kept := n.pendingProxy[:0]
	for _, p := range n.pendingProxy {
		if n.reconstitute(p.req) {
			n.tr.Send(p.nextHop, p.req)
			continue
		}
		if now.After(p.deadline) {
			// Degrade: drop the entries but keep prev/commit metadata so
			// the downstream follower still sees a heartbeat (§4.2.1).
			p.req.Entries = nil
			n.tr.Send(p.nextHop, p.req)
			continue
		}
		kept = append(kept, p)
	}
	n.pendingProxy = kept
}

// handleAppendResp processes an acknowledgement, relaying it upstream if
// it is still being proxied back to the leader.
func (n *Node) handleAppendResp(resp *wire.AppendEntriesResp) {
	if len(resp.Route) > 0 {
		n.sendResp(resp)
		return
	}
	if resp.Term > n.term {
		n.becomeFollower(resp.Term, "")
		return
	}
	if n.role != RoleLeader || resp.Term < n.term {
		return
	}
	ps := n.peers[resp.From]
	if ps == nil {
		return
	}
	ps.lastAck = n.clk.Now()
	// Any same-term response — success or log-mismatch rejection — proves
	// the peer still accepted our leadership when it echoed this round.
	if resp.ReadSeq > ps.ackSeq {
		ps.ackSeq = resp.ReadSeq
		n.advanceReadRounds()
	}
	if resp.Success {
		if resp.MatchIndex > ps.match {
			ps.match = resp.MatchIndex
		}
		if ps.match+1 > ps.next {
			ps.next = ps.match + 1
		}
		n.advanceLeaderCommit()
		n.checkTransferProgress()
		if ps.next <= n.lastOpID.Index {
			n.sendAppend(resp.From) // keep the pipe full
		}
		return
	}
	// Rejected: back up using the follower's hint and resend.
	next := resp.LastIndex + 1
	if next > ps.next {
		next = ps.next // never move forward on a rejection
	}
	if next == 0 {
		next = 1
	}
	ps.next = next
	n.sendAppend(resp.From)
}

// matchVector returns each member's match index in n.members order, as
// quorum.CommittedIndex takes it, in the node's reusable scratch slice.
// The leader's own vote counts only up to its durable index: an entry
// sitting in the async writer's queue could still be lost to a local
// crash, so it must not contribute to the commit quorum yet. Non-voters
// count nothing.
func (n *Node) matchVector() []uint64 {
	match := n.matchScratch[:0]
	for _, m := range n.members.Members {
		var idx uint64
		if m.ID == n.cfg.ID {
			idx = n.selfMatch
		} else if m.Voter {
			if ps := n.peers[m.ID]; ps != nil {
				idx = ps.match
			}
		}
		match = append(match, idx)
	}
	n.matchScratch = match
	return match
}

// advanceLeaderCommit recomputes the commit marker from match indexes
// under the active quorum strategy. Entries from prior terms are only
// committed once an entry of the current term is (standard Raft safety,
// preserved by FlexiRaft). It runs on every ack and allocates nothing.
func (n *Node) advanceLeaderCommit() {
	c := quorum.CommittedIndex(n.strategy(), n.voters, n.cfg.Region, n.matchVector())
	if c <= n.commitIndex {
		return
	}
	if t, ok := n.termAt(c); !ok || t != n.term {
		return
	}
	n.setCommitIndex(c)
}

// checkTransferProgress fires the election trigger once the transfer
// target has fully caught up (§4.3: the only criterion kuduraft checks;
// the mock election already ran before quiescing).
func (n *Node) checkTransferProgress() {
	t := n.transfer
	if t == nil || t.stage != transferCatchup {
		return
	}
	ps := n.peers[t.target]
	if ps == nil {
		n.finishTransfer(ErrUnknownMember)
		return
	}
	if ps.match < n.lastOpID.Index {
		return
	}
	t.stage = transferFired
	// Stay quiesced until the target's election demotes us (or a grace
	// period passes), so no client write is accepted only to be truncated
	// by the new leader moments later.
	t.deadline = n.clk.Now().Add(n.maxElectionTimeout())
	if debugElections {
		n.debugf("TRANSFER fire %s last=%v", t.target, n.lastOpID)
	}
	n.tr.Send(t.target, &wire.StartElection{
		Term: n.term,
		From: n.cfg.ID,
	})
	select {
	case t.resp <- nil:
	default:
	}
}
