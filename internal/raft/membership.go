package raft

// membership.go is the membership machinery: the active config and its
// truncation-rollback history, the one-at-a-time AddMember/RemoveMember
// API (§2.2), the quorum-fixer override, and graceful leadership
// transfer with its mock-election pre-check (§4.3).

import (
	"fmt"
	"time"

	"myraft/internal/opid"
	"myraft/internal/quorum"
	"myraft/internal/wire"
)

// confVersion is one point in the membership history, used to roll the
// active config back when a config entry is truncated.
type confVersion struct {
	index uint64
	cfg   wire.Config
}

// applyConfig activates a membership (effective as soon as written,
// §2.2) and records it for truncation rollback.
func (n *Node) applyConfig(index uint64, cfg wire.Config) {
	n.setMembers(cfg.Clone())
	n.confHistory = append(n.confHistory, confVersion{index: index, cfg: cfg.Clone()})
	if n.role == RoleLeader {
		now := n.clk.Now()
		for _, m := range cfg.Members {
			if m.ID == n.cfg.ID {
				continue
			}
			if _, ok := n.peers[m.ID]; !ok {
				n.peers[m.ID] = &peerState{next: n.lastOpID.Index + 1, lastAck: now}
			}
		}
		for id := range n.peers {
			if _, ok := cfg.Find(id); !ok {
				delete(n.peers, id)
			}
		}
	}
	cb := cfg.Clone()
	go n.cb.OnMembershipChange(cb)
}

// setMembers replaces the active membership and the voter layout cached
// from it.
func (n *Node) setMembers(cfg wire.Config) {
	n.members = cfg
	n.voters = quorum.NewVoters(cfg)
	clear(n.routes)
}

func (n *Node) isVoter(id wire.NodeID) bool {
	m, ok := n.members.Find(id)
	return ok && m.Voter
}

func (n *Node) regionOf(id wire.NodeID) wire.Region {
	if m, ok := n.members.Find(id); ok {
		return m.Region
	}
	return ""
}

// ForceQuorum overrides the quorum strategy (nil restores the configured
// one). This is the Quorum Fixer's "forcibly change the quorum
// expectations" primitive (§5.3); it is deliberately unsafe and exists
// for operator-driven remediation only.
func (n *Node) ForceQuorum(s quorum.Strategy) {
	n.post(func() { n.override = s })
}

// AddMember proposes adding a member; RemoveMember proposes removal. Only
// one membership change may be in flight at a time (§2.2).
func (n *Node) AddMember(m wire.Member) (opid.OpID, error) {
	return n.changeMembership(func(cfg wire.Config) (wire.Config, error) {
		if _, ok := cfg.Find(m.ID); ok {
			return cfg, fmt.Errorf("raft: member %s already present", m.ID)
		}
		cfg.Members = append(cfg.Members, m)
		return cfg, nil
	})
}

// RemoveMember proposes removing a member.
func (n *Node) RemoveMember(id wire.NodeID) (opid.OpID, error) {
	return n.changeMembership(func(cfg wire.Config) (wire.Config, error) {
		out := cfg.Clone()
		out.Members = out.Members[:0]
		found := false
		for _, m := range cfg.Members {
			if m.ID == id {
				found = true
				continue
			}
			out.Members = append(out.Members, m)
		}
		if !found {
			return cfg, ErrUnknownMember
		}
		return out, nil
	})
}

func (n *Node) changeMembership(mutate func(wire.Config) (wire.Config, error)) (opid.OpID, error) {
	var op opid.OpID
	var perr error
	err := n.post(func() {
		if n.role != RoleLeader {
			perr = ErrNotLeader
			return
		}
		if n.confHistory[len(n.confHistory)-1].index > n.commitIndex {
			perr = ErrConfChangeInFlight
			return
		}
		newCfg, err := mutate(n.members.Clone())
		if err != nil {
			perr = err
			return
		}
		e := &wire.LogEntry{
			OpID:    opid.OpID{Term: n.term, Index: n.lastOpID.Index + 1},
			Kind:    entryConfigKind,
			Payload: wire.EncodeConfig(newCfg),
		}
		if perr = n.appendLocal(e, nil); perr != nil {
			return
		}
		op = e.OpID
		n.advanceLeaderCommit()
		n.needsBroadcast = true
	})
	if err != nil {
		return opid.Zero, err
	}
	return op, perr
}

// transferStage sequences a graceful TransferLeadership.
type transferStage int

const (
	transferMock    transferStage = iota // waiting for the mock election result
	transferCatchup                      // quiesced, waiting for the target to match the tail
	transferFired                        // StartElection sent
)

// transferState tracks the leader side of a graceful transfer.
type transferState struct {
	target   wire.NodeID
	stage    transferStage
	deadline time.Time
	resp     chan error
}

// TransferLeadership gracefully hands leadership to target: run a mock
// election (§4.3), quiesce writes, wait for the target to fully catch up,
// then trigger an election on it (§2.2). It blocks until the transfer
// fires or fails; the caller observes the actual role change through the
// promotion callbacks / Status.
func (n *Node) TransferLeadership(target wire.NodeID) error {
	resp := make(chan error, 1)
	err := n.post(func() {
		if n.role != RoleLeader {
			resp <- ErrNotLeader
			return
		}
		if n.transfer != nil {
			resp <- fmt.Errorf("%w: transfer already in flight", ErrTransferFailed)
			return
		}
		m, ok := n.members.Find(target)
		if !ok || !m.Voter {
			resp <- ErrUnknownMember
			return
		}
		if debugElections {
			n.debugf("TRANSFER start %s term=%d last=%v", target, n.term, n.lastOpID)
		}
		n.transfer = &transferState{
			target:   target,
			stage:    transferMock,
			deadline: n.clk.Now().Add(n.cfg.TransferTimeout),
			resp:     resp,
		}
		if n.cfg.DisableMockElection {
			// Stock kuduraft: no pre-check; quiesce and wait for the
			// target to catch up.
			n.transfer.stage = transferCatchup
			n.sendAppend(target)
			n.checkTransferProgress()
			return
		}
		n.tr.Send(target, &wire.StartElection{
			Term:     n.term,
			From:     n.cfg.ID,
			Mock:     true,
			Snapshot: n.lastOpID,
		})
	})
	if err != nil {
		return err
	}
	select {
	case err := <-resp:
		return err
	case <-n.stop:
		return ErrStopped
	}
}

// finishTransfer resolves the in-flight transfer with err (nil=fired).
func (n *Node) finishTransfer(err error) {
	if n.transfer == nil {
		return
	}
	t := n.transfer
	n.transfer = nil
	select {
	case t.resp <- err:
	default:
	}
}

// tickTransfer drives the transfer deadline. A fired transfer whose
// target never took over expires silently and the leader resumes writes;
// earlier stages time out with an error to the caller. A mock stage whose
// target has answered nothing for an election timeout fails at once: a
// dead target then costs the caller, such as a witness leader trying
// MySQL voters in turn, no more than that before it tries another.
func (n *Node) tickTransfer(now time.Time) {
	t := n.transfer
	if t == nil || n.role != RoleLeader {
		return
	}
	ps := n.peers[t.target]
	silent := t.stage == transferMock && ps != nil && now.Sub(ps.lastAck) > n.maxElectionTimeout()
	if !silent && !now.After(t.deadline) {
		return
	}
	if t.stage == transferFired {
		n.transfer = nil
		return
	}
	if debugElections {
		n.debugf("TRANSFER give-up %s stage=%d silent=%v", t.target, t.stage, silent)
	}
	n.finishTransfer(fmt.Errorf("%w: timed out in stage %d", ErrTransferFailed, t.stage))
}
