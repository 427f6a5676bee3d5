package raft

import (
	"fmt"
	"os"
	"time"

	"myraft/internal/wire"
)

// debugElections enables forensic election logging (set via the
// MYRAFT_DEBUG_ELECTIONS environment variable): campaign starts, vote
// denials, wins and each leadership-transfer step, one line each.
var debugElections = os.Getenv("MYRAFT_DEBUG_ELECTIONS") != ""

// debugf prints one election-forensics line to stderr, stamped with the
// wall clock and this node's ID so the lines of every member in a process
// read as one timeline. Callers check debugElections first.
func (n *Node) debugf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s %s "+format+"\n",
		append([]any{time.Now().Format("15:04:05.000000"), n.cfg.ID}, args...)...)
}

// voteKindName names a wire.VoteKind in log lines.
func voteKindName(k wire.VoteKind) string {
	switch k {
	case wire.VotePre:
		return "pre"
	case wire.VoteMock:
		return "mock"
	}
	return "real"
}

// sinceLeaderContact renders how long ago this node last heard from a
// leader, for the campaign log line.
func (n *Node) sinceLeaderContact() string {
	if n.lastLeaderContact.IsZero() {
		return "never"
	}
	return n.clk.Since(n.lastLeaderContact).Round(10 * time.Microsecond).String()
}

// startCampaign begins an election round of the given kind. Pre-elections
// probe at term+1 without consuming a term; real elections increment and
// persist the term first.
func (n *Node) startCampaign(kind wire.VoteKind) {
	n.resetElectionDeadline()
	campaignTerm := n.term + 1
	if debugElections {
		n.debugf("CAMPAIGN kind=%s term=%d last=%v leader_contact=%s ago",
			voteKindName(kind), campaignTerm, n.lastOpID, n.sinceLeaderContact())
	}
	if kind == wire.VoteReal {
		n.term = campaignTerm
		n.votedFor = n.cfg.ID
		n.persistHardState()
		n.role = RoleCandidate
		n.leader = ""
		n.noteRole()
	}
	n.campaign = &campaignState{
		kind:      kind,
		term:      campaignTerm,
		votes:     map[wire.NodeID]bool{n.cfg.ID: true},
		intersect: map[wire.Region]bool{},
	}
	if n.lastLeaderRegion != "" {
		n.campaign.intersect[n.lastLeaderRegion] = true
	}
	req := &wire.RequestVoteReq{
		Term:      campaignTerm,
		Candidate: n.cfg.ID,
		LastOpID:  n.lastOpID,
		Kind:      kind,
	}
	for _, m := range n.members.Members {
		if !m.Voter || m.ID == n.cfg.ID {
			continue
		}
		n.tr.Send(m.ID, req)
	}
	// A single-voter config wins instantly.
	n.maybeWinCampaign()
}

// handleVoteReq applies the voting rules for real, pre- and mock
// elections. Voting is never proxied (§4.2.1).
func (n *Node) handleVoteReq(req *wire.RequestVoteReq) {
	switch req.Kind {
	case wire.VoteMock:
		n.handleMockVoteReq(req)
		return
	case wire.VotePre:
		n.handlePreVoteReq(req)
		return
	}

	resp := &wire.RequestVoteResp{
		From: n.cfg.ID,
		Kind: wire.VoteReal,
		// Report pre-grant voting history for FlexiRaft quorum
		// intersection (§4.1).
		LastLeaderRegion: n.lastLeaderRegion,
		LastLeaderTerm:   n.lastLeaderTerm,
	}
	if req.Term > n.term {
		n.becomeFollower(req.Term, "")
	}
	resp.Term = n.term
	switch {
	case req.Term < n.term:
		resp.Granted = false
		resp.Reason = "stale term"
	case n.votedFor != "" && n.votedFor != req.Candidate:
		resp.Granted = false
		resp.Reason = "already voted"
	case n.lastOpID.Less(req.LastOpID) || n.lastOpID == req.LastOpID:
		resp.Granted = true
	default:
		resp.Granted = false
		resp.Reason = "candidate log behind"
	}
	if resp.Granted {
		n.votedFor = req.Candidate
		n.persistHardState()
		n.resetElectionDeadline()
		// Granting a vote endorses the candidate's region as a possible
		// future data-quorum region (voting history tracking, §4.1).
		if r := n.regionOf(req.Candidate); r != "" {
			n.lastLeaderRegion = r
			n.lastLeaderTerm = req.Term
		}
	}
	n.sendVote(req, resp)
}

// sendVote answers a vote request, logging a denial with its reason.
func (n *Node) sendVote(req *wire.RequestVoteReq, resp *wire.RequestVoteResp) {
	if debugElections && !resp.Granted {
		n.debugf("DENY %s kind=%s term=%d their_last=%v my_last=%v reason=%q",
			req.Candidate, voteKindName(req.Kind), req.Term, req.LastOpID, n.lastOpID, resp.Reason)
	}
	n.tr.Send(req.Candidate, resp)
}

// handlePreVoteReq grants non-binding votes: no term or vote state
// changes. Leader stickiness: a node that heard from a live leader
// recently rejects, avoiding disruption by partitioned rejoiners.
func (n *Node) handlePreVoteReq(req *wire.RequestVoteReq) {
	resp := &wire.RequestVoteResp{
		Term:             n.term,
		From:             n.cfg.ID,
		Kind:             wire.VotePre,
		LastLeaderRegion: n.lastLeaderRegion,
		LastLeaderTerm:   n.lastLeaderTerm,
	}
	stickiness := time.Duration(n.cfg.ElectionTimeoutTicks) * n.cfg.HeartbeatInterval
	switch {
	case req.Term <= n.term:
		resp.Reason = "stale term"
	case n.role == RoleLeader:
		resp.Reason = "i am leader"
	case n.leader != "" && n.clk.Now().Sub(n.lastLeaderContact) < stickiness:
		resp.Reason = "leader alive"
	case req.LastOpID.AtLeast(n.lastOpID):
		resp.Granted = true
	default:
		resp.Reason = "candidate log behind"
	}
	n.sendVote(req, resp)
}

// handleMockVoteReq applies the modified mock-election voting rule
// (§4.3): a voter in the candidate's region rejects when it lags the
// leader's cursor snapshot beyond the allowance, because as part of the
// prospective data quorum it would stall commits after the transfer.
func (n *Node) handleMockVoteReq(req *wire.RequestVoteReq) {
	resp := &wire.RequestVoteResp{
		Term:             n.term,
		From:             n.cfg.ID,
		Kind:             wire.VoteMock,
		LastLeaderRegion: n.lastLeaderRegion,
		LastLeaderTerm:   n.lastLeaderTerm,
	}
	sameRegion := n.cfg.Region == n.regionOf(req.Candidate)
	lagging := n.lastOpID.Index+n.cfg.MockLagAllowance < req.Snapshot.Index
	if sameRegion && lagging {
		resp.Reason = "lagging in candidate region"
	} else {
		resp.Granted = true
	}
	n.sendVote(req, resp)
}

// handleVoteResp tallies campaign and mock-election votes.
func (n *Node) handleVoteResp(resp *wire.RequestVoteResp) {
	if resp.Kind == wire.VoteMock {
		n.handleMockVoteResp(resp)
		return
	}
	if resp.Term > n.term {
		n.becomeFollower(resp.Term, "")
		return
	}
	c := n.campaign
	if c == nil || resp.Kind != c.kind {
		return
	}
	if !resp.Granted {
		return
	}
	c.votes[resp.From] = true
	if resp.LastLeaderRegion != "" {
		c.intersect[resp.LastLeaderRegion] = true
	}
	n.maybeWinCampaign()
}

// maybeWinCampaign checks the quorum condition: the candidate's region
// plus every region reported in the collected voting history must be
// satisfied (for region-aware strategies; Majority/Grid ignore the region
// arguments and reduce to their own rule).
func (n *Node) maybeWinCampaign() {
	c := n.campaign
	if c == nil {
		return
	}
	s := n.strategy()
	regions := c.intersect
	if len(regions) == 0 {
		regions = map[wire.Region]bool{"": true}
	}
	for r := range regions {
		if !s.ElectionSatisfied(n.members, n.cfg.Region, r, c.votes) {
			return
		}
	}
	kind := c.kind
	n.campaign = nil
	if kind == wire.VotePre {
		n.startCampaign(wire.VoteReal)
		return
	}
	if debugElections {
		n.debugf("ELECTED term=%d last=%v votes=%v intersect=%v", n.term, n.lastOpID, c.votes, c.intersect)
	}
	n.becomeLeader()
}

// handleStartElection reacts to a leader's transfer trigger: a mock
// request starts a mock election round; a real request starts an
// immediate election (the TransferLeadership fast path, §2.2).
func (n *Node) handleStartElection(req *wire.StartElection) {
	if req.Mock {
		n.startMockElection(req)
		return
	}
	if n.role == RoleLeader {
		return
	}
	// Transfer trigger: campaign immediately, skipping pre-vote — the
	// leader itself asked, so disruption checks don't apply.
	n.startCampaign(wire.VoteReal)
}

// startMockElection runs the §4.3 pre-check on behalf of the current
// leader: a round of mock votes against the leader's cursor snapshot.
func (n *Node) startMockElection(req *wire.StartElection) {
	m := &mockState{
		asker:     req.From,
		snapshot:  req.Snapshot,
		votes:     map[wire.NodeID]bool{},
		deadline:  n.clk.Now().Add(n.cfg.TransferTimeout / 2),
		intersect: map[wire.Region]bool{},
	}
	// Self-vote under the same lagging rule voters apply.
	if n.lastOpID.Index+n.cfg.MockLagAllowance >= req.Snapshot.Index {
		m.votes[n.cfg.ID] = true
	} else {
		m.rejected = true
		m.reason = "target itself lagging"
	}
	if r := n.regionOf(req.From); r != "" {
		m.intersect[r] = true
	}
	n.mock = m
	vote := &wire.RequestVoteReq{
		Term:      n.term,
		Candidate: n.cfg.ID,
		LastOpID:  n.lastOpID,
		Kind:      wire.VoteMock,
		Snapshot:  req.Snapshot,
	}
	for _, mem := range n.members.Members {
		if !mem.Voter || mem.ID == n.cfg.ID {
			continue
		}
		n.tr.Send(mem.ID, vote)
	}
	n.maybeFinishMock()
}

// handleMockVoteResp tallies mock votes on the prospective target.
func (n *Node) handleMockVoteResp(resp *wire.RequestVoteResp) {
	m := n.mock
	if m == nil {
		return
	}
	if resp.Granted {
		m.votes[resp.From] = true
		if resp.LastLeaderRegion != "" {
			m.intersect[resp.LastLeaderRegion] = true
		}
		n.maybeFinishMock()
	}
}

// maybeFinishMock reports success to the asking leader once the mock
// votes satisfy the election quorum the real election would need.
func (n *Node) maybeFinishMock() {
	m := n.mock
	if m == nil || m.rejected {
		return
	}
	s := n.strategy()
	for r := range m.intersect {
		if !s.ElectionSatisfied(n.members, n.cfg.Region, r, m.votes) {
			return
		}
	}
	if len(m.intersect) == 0 &&
		!s.ElectionSatisfied(n.members, n.cfg.Region, "", m.votes) {
		return
	}
	n.mock = nil
	n.tr.Send(m.asker, &wire.MockElectionResult{
		Term:    n.term,
		From:    n.cfg.ID,
		Success: true,
	})
}

// tickMock times out a pending mock election with a failure report.
func (n *Node) tickMock(now time.Time) {
	m := n.mock
	if m == nil {
		return
	}
	if m.rejected || now.After(m.deadline) {
		reason := m.reason
		if reason == "" {
			reason = "mock election quorum not reached"
		}
		n.mock = nil
		n.tr.Send(m.asker, &wire.MockElectionResult{
			Term:    n.term,
			From:    n.cfg.ID,
			Success: false,
			Reason:  reason,
		})
	}
}

// handleMockResult advances the leader's transfer state machine (§4.3):
// on success, quiesce writes and wait for the target to catch up.
func (n *Node) handleMockResult(res *wire.MockElectionResult) {
	t := n.transfer
	if t == nil || n.role != RoleLeader || res.From != t.target || t.stage != transferMock {
		return
	}
	if debugElections {
		n.debugf("TRANSFER mock %s success=%v reason=%q", t.target, res.Success, res.Reason)
	}
	if !res.Success {
		n.finishTransfer(ErrTransferFailed)
		return
	}
	t.stage = transferCatchup
	// Quiesced from here: Propose rejects until the transfer resolves.
	n.sendAppend(t.target)
	n.checkTransferProgress()
}
