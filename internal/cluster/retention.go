// retention.go is the cluster purge coordinator of the bounded-log
// lifecycle (§A.1): each purge round (POST /purge, chaos ActPurge)
// advances a cluster-wide purge floor — the first log index every member
// is asked to retain — and drives PURGE BINARY LOGS on every live member
// with it. The floor is
// the minimum of what every healthy (up) member has durably replicated
// and the retention budget below the log tail; members that are down, or
// lagging beyond the budget, are sacrificed: they will catch up through
// snapshot install instead of log replay.
package cluster

import (
	"fmt"

	"myraft/internal/raft"
)

// PurgeFloor returns the last cluster-wide purge floor the coordinator
// drove (0 before the first purge round).
func (c *Cluster) PurgeFloor() uint64 { return c.purgeFloor.Load() }

// PurgeOnce runs one round of the purge protocol: compute the floor on
// the current leader and drive every live member's purge with it. It
// returns the floor driven (0 when nothing was purgeable). Each member
// additionally clamps the floor to its own applied position
// (mysql.Server.PurgeLogsTo), so an in-flight applier is never starved.
func (c *Cluster) PurgeOnce(retentionEntries uint64) (uint64, error) {
	leader := c.Leader()
	if leader == nil || leader.Node() == nil {
		return 0, fmt.Errorf("cluster: purge: no leader")
	}
	st := leader.Node().Status()
	if st.Role != raft.RoleLeader {
		return 0, fmt.Errorf("cluster: purge: leadership lost mid-round")
	}
	tail := st.LastOpID.Index
	if tail <= retentionEntries {
		return 0, nil // the whole log fits the budget
	}

	// Healthy floor: nothing a live member has not durably replicated is
	// purged, so every up member keeps repairing through AppendEntries.
	// Down members do not hold the floor — that is the sacrifice.
	minDurable := st.DurableIndex
	c.mu.RLock()
	for id, m := range c.members {
		if m.down || id == leader.Spec.ID {
			continue
		}
		if match, ok := st.Match[id]; ok && match < minDurable {
			minDurable = match
		}
	}
	c.mu.RUnlock()

	floor := minDurable + 1
	if budgetFloor := tail - retentionEntries + 1; floor > budgetFloor {
		// Retain at least the budget below the tail even when every member
		// is caught up: restarting members replay from here.
		floor = budgetFloor
	}
	// Only consensus-committed history is ever purged; an uncommitted
	// suffix may still be truncated and must stay reachable.
	if floor > st.CommitIndex+1 {
		floor = st.CommitIndex + 1
	}
	if floor <= 1 || floor <= c.purgeFloor.Load() {
		return 0, nil
	}

	// Drive the purge on every live member, then let each raft node drop
	// its in-memory prefix so below-floor peers take the snapshot path.
	c.mu.RLock()
	type target struct {
		m    *Member
		node *raft.Node
	}
	var targets []target
	for _, m := range c.members {
		if m.down || m.node == nil {
			continue
		}
		targets = append(targets, target{m: m, node: m.node})
	}
	c.mu.RUnlock()
	for _, t := range targets {
		var err error
		switch {
		case t.m.server != nil:
			err = t.m.server.PurgeLogsTo(floor)
		case t.m.tailer != nil:
			err = t.m.tailer.Log().PurgeTo(floor)
		}
		if err != nil {
			return 0, fmt.Errorf("cluster: purge %s: %w", t.m.Spec.ID, err)
		}
		t.node.NotePurged()
	}
	c.purgeFloor.Store(floor)
	return floor, nil
}
