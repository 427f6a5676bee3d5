// Package logtailer implements the witness entity of MyRaft (§2.1,
// Table 1): a Raft voter that keeps a full replicated log but has no
// storage engine. Logtailers exist so the in-region data-commit quorum of
// FlexiRaft (one MySQL primary plus two logtailers) can acknowledge
// writes at intra-region latency without running full database replicas.
//
// Because Raft's longest-log voting rules can elect a logtailer as a
// temporary leader during failover, the logtailer's promotion callback
// immediately hands leadership to a MySQL voter via a regular graceful
// TransferLeadership (§2.2, §4.1).
package logtailer

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"myraft/internal/binlog"
	"myraft/internal/gtid"
	"myraft/internal/logstore"
	"myraft/internal/raft"
	"myraft/internal/wire"
)

// Logtailer is one witness instance.
type Logtailer struct {
	id  wire.NodeID
	log *binlog.Log

	mu   sync.Mutex
	node *raft.Node

	// TransferDelay throttles the leader-handoff retry loop.
	TransferDelay time.Duration
}

// New opens (or recovers) a logtailer whose log lives under dir.
func New(id wire.NodeID, dir string) (*Logtailer, error) {
	log, err := binlog.Open(binlog.Options{
		Dir:     filepath.Join(dir, "logs"),
		Persona: binlog.PersonaRelay,
	})
	if err != nil {
		return nil, fmt.Errorf("logtailer: %w", err)
	}
	return &Logtailer{id: id, log: log, TransferDelay: 10 * time.Millisecond}, nil
}

// ID returns the logtailer's node ID.
func (lt *Logtailer) ID() wire.NodeID { return lt.id }

// Log returns the underlying replicated log.
func (lt *Logtailer) Log() *binlog.Log { return lt.log }

// LogStore returns the raft.LogStore view of the log.
func (lt *Logtailer) LogStore() raft.LogStore { return logstore.BinlogStore{Log: lt.log} }

// AttachNode connects the raft node (after raft.NewNode).
func (lt *Logtailer) AttachNode(n *raft.Node) {
	lt.mu.Lock()
	lt.node = n
	lt.mu.Unlock()
}

// Node returns the attached node.
func (lt *Logtailer) Node() *raft.Node {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return lt.node
}

// OnPromote implements raft.Callbacks: a logtailer elected leader holds no
// database, so it transfers leadership to a MySQL voter at once (§2.2).
// The mock election (§4.3) then runs while the No-Op replicates. The
// leader this witness replaced is tried last: after a crash it is the
// member that is down. raft gives up on a target that has answered
// nothing for an election timeout, so a dead pick costs no more than
// that before the next voter is tried. The loop keeps going for as long
// as this node leads at this term: a bounded retry budget would let a
// network fault during failover exhaust every target and leave the
// witness as a permanent leader that can never serve writes.
func (lt *Logtailer) OnPromote(info raft.PromoteInfo) {
	node := lt.Node()
	if node == nil {
		return
	}
	failed := make(map[wire.NodeID]bool)
	if info.PrevLeader != "" {
		failed[info.PrevLeader] = true
	}
	for {
		st := node.Status()
		if st.Role != raft.RoleLeader || st.Term != info.Term {
			return // someone else took over (or the node stopped); done
		}
		target := bestTransferTarget(st, lt.id, failed)
		if target == "" {
			// Every MySQL voter failed once: a target that failed may
			// merely have been partitioned, so start over with all.
			clear(failed)
			target = bestTransferTarget(st, lt.id, failed)
		}
		if target != "" {
			// TransferLeadership blocks until the transfer fires or
			// fails — but even a fired transfer is no guarantee: the
			// target can still lose the election it was handed, and the
			// quiesced leader silently resumes. Success therefore just
			// means "re-check the role next lap" rather than "done".
			if err := node.TransferLeadership(target); err != nil {
				failed[target] = true
			}
		}
		time.Sleep(lt.TransferDelay)
	}
}

// bestTransferTarget picks the non-witness voter with the highest match
// index, skipping excluded members. Ties, such as the all-zero match
// indexes right after an election, go to the first in config order.
func bestTransferTarget(st raft.Status, self wire.NodeID, exclude map[wire.NodeID]bool) wire.NodeID {
	var best wire.NodeID
	var bestMatch uint64
	for _, m := range st.Config.Members {
		if m.ID == self || !m.Voter || m.Witness || exclude[m.ID] {
			continue
		}
		if match := st.Match[m.ID]; best == "" || match > bestMatch {
			best = m.ID
			bestMatch = match
		}
	}
	return best
}

// OnDemote implements raft.Callbacks (nothing to do: no engine).
func (lt *Logtailer) OnDemote(uint64) {}

// OnCommitAdvance implements raft.Callbacks (nothing to apply).
func (lt *Logtailer) OnCommitAdvance(uint64) {}

// OnMembershipChange implements raft.Callbacks.
func (lt *Logtailer) OnMembershipChange(wire.Config) {}

// InstallSnapshot implements raft.SnapshotSink. A logtailer has no
// storage engine, so installing a snapshot is just resetting the log to
// an empty suffix at the anchor; the engine checkpoint payload is
// discarded.
func (lt *Logtailer) InstallSnapshot(s *raft.Snapshot) error {
	set, err := gtid.ParseSet(s.GTIDSet)
	if err != nil {
		return fmt.Errorf("logtailer: install snapshot: %w", err)
	}
	return lt.log.ResetTo(s.Anchor, set)
}

// Crash simulates a process crash (torn log tail).
func (lt *Logtailer) Crash() { lt.log.Crash() }

// Close shuts the logtailer down cleanly.
func (lt *Logtailer) Close() error { return lt.log.Close() }

var (
	_ raft.Callbacks    = (*Logtailer)(nil)
	_ raft.SnapshotSink = (*Logtailer)(nil)
)
