package chaos

// checks.go holds the post-heal invariant checkers. Each ring is judged
// as its own replicaset; durability and isolation go through the routed
// client and the routing table, because ownership is what they are about.

import (
	"context"
	"fmt"
	"sort"
	"time"

	"myraft/internal/binlog"
	"myraft/internal/cluster"
	"myraft/internal/gtid"
	"myraft/internal/storage"
	"myraft/internal/wire"
)

// ring is one shard under judgment.
type ring struct {
	h  *harness
	id wire.ShardID
	c  *cluster.Cluster
}

func (r ring) violatef(format string, args ...any) {
	r.h.violatef("shard %d: "+format, append([]any{r.id}, args...)...)
}

// checkAll runs every invariant: six per ring here (read safety, the
// seventh, is judged online by the readers), then the routed ones.
func (h *harness) checkAll() {
	for s := 0; s < h.rt.Shards(); s++ {
		r := ring{h: h, id: wire.ShardID(s), c: h.rt.Shard(wire.ShardID(s))}
		r.checkConvergence()
		r.checkParallelApplyEquivalence()
		r.checkGTIDFinal()
		r.checkPurgeCatchup()
		r.checkElectionSafety()
	}
	h.checkDurability()
	h.checkIsolation()
}

// checkConvergence waits for the healed ring to elect a primary and
// re-converge every member's log and engine — the log matching
// invariant judged at quiescence, over full content checksums rather
// than samples.
func (r ring) checkConvergence() {
	r.h.checked("log matching")
	deadline := time.Now().Add(convergeTimeout)
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	if _, err := r.c.AnyPrimary(ctx); err != nil {
		r.violatef("convergence: no primary after full heal: %v\nstatus: %s", err, r.statusLines())
		return
	}
	members := r.c.Members()
	var lastLog, lastEng string
	for {
		logOK := false
		// Under the bounded-log lifecycle the logs are windows, not
		// prefixes: compare from the highest first-retained index so a
		// snapshot-installed member's missing (purged) prefix is not
		// mistaken for divergence.
		from := r.c.LogCommonStart()
		sums, err := r.c.LogChecksums(from)
		if err == nil && len(sums) == len(members) {
			logOK = allEqual(sums)
			lastLog = fmt.Sprintf("from=%d %v", from, sums)
		} else {
			lastLog = fmt.Sprintf("from=%d %v (err=%v)", from, sums, err)
		}
		esums := r.c.EngineChecksums()
		engOK := len(esums) > 0 && allEqual(esums)
		lastEng = fmt.Sprintf("%v", esums)
		if logOK && engOK {
			r.h.cfg.logf("chaos: shard %d converged: logs=%s engines=%s", r.id, lastLog, lastEng)
			return
		}
		if time.Now().After(deadline) {
			r.violatef("log matching: no convergence within %s: logs=%s engines=%s\nstatus: %s",
				convergeTimeout, lastLog, lastEng, r.statusLines())
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// checkParallelApplyEquivalence re-derives every full-history member's
// engine state by replaying its relay log serially, in strict index
// order, and compares row checksums: whatever interleaving the parallel
// applier chose, the result must equal the canonical serial order
// (§3.5 writeset-scheduling safety). Members whose log no longer starts
// at index 1 (purged, or reset by a snapshot install — which leaves the
// log empty until the next entry arrives) cannot be replayed from an
// empty state and are skipped with a trace line.
func (r ring) checkParallelApplyEquivalence() {
	r.h.checked("parallel apply")
	for _, m := range r.c.Members() {
		srv := m.Server()
		if srv == nil || m.IsDown() {
			continue
		}
		if first, anchor := srv.Log().FirstIndex(), srv.Log().Anchor(); first > 1 || !anchor.IsZero() {
			r.h.cfg.logf("chaos: shard %d parallel-apply equivalence: skip %s (log starts at %d, anchor %v)", r.id, m.Spec.ID, first, anchor)
			continue
		}
		// The workload has stopped and convergence held, but the applier
		// may still be draining its tail: only judge a replay whose
		// engine position held still while it ran.
		deadline := time.Now().Add(convergeTimeout)
		for {
			through := srv.Engine().LastCommitted().Index
			sum, err := serialReplayChecksum(srv.Log(), through)
			if err != nil {
				r.violatef("parallel apply: %s: serial replay: %v", m.Spec.ID, err)
				break
			}
			if srv.Engine().LastCommitted().Index == through {
				if got := srv.Engine().Checksum(); got != sum {
					r.violatef("parallel apply: %s: engine checksum %08x != serial replay %08x through index %d",
						m.Spec.ID, got, sum, through)
				}
				break
			}
			if time.Now().After(deadline) {
				r.violatef("parallel apply: %s: engine position would not settle for replay", m.Spec.ID)
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}

// serialReplayChecksum folds the data entries of [1, through] into a
// fresh row map one at a time and returns the content checksum a
// hypothetical engine holding that state would report.
func serialReplayChecksum(l *binlog.Log, through uint64) (uint32, error) {
	rows := make(map[string][]byte)
	const chunk = 512
	for from := uint64(1); from <= through; from += chunk {
		to := min(from+chunk-1, through)
		entries, err := l.Entries(from, to)
		if err != nil {
			return 0, err
		}
		for _, e := range entries {
			if e.Type != binlog.EntryNormal {
				continue
			}
			changes, _, err := storage.DecodeTxnPayload(e.Payload)
			if err != nil {
				return 0, fmt.Errorf("entry %d: %w", e.OpID.Index, err)
			}
			for _, c := range changes {
				if c.IsDelete() {
					delete(rows, c.Key)
				} else {
					rows[c.Key] = c.After
				}
			}
		}
	}
	return storage.ChecksumRows(rows), nil
}

// statusLines renders every member's raft status for convergence
// failure reports, with the fault journal of a node whose log writer
// died (one journal per ring the node hosts).
func (r ring) statusLines() string {
	var lines []string
	for _, m := range r.c.Members() {
		n := m.Node()
		if n == nil {
			lines = append(lines, fmt.Sprintf("%s: down", m.Spec.ID))
			continue
		}
		st := n.Status()
		ds := n.DurabilityStats()
		lines = append(lines, fmt.Sprintf("%s: role=%v term=%d leader=%s last=%v commit=%d durable=%d werr=%v",
			st.ID, st.Role, st.Term, st.Leader, st.LastOpID, st.CommitIndex, st.DurableIndex, ds.Err))
		if ds.Err != nil {
			for _, s := range liveOf(r.h, &r.h.stores, m.Spec.ID) {
				j := s.Journal()
				lines = append(lines, fmt.Sprintf("%s store journal: %v", m.Spec.ID, j[max(0, len(j)-40):]))
			}
		}
	}
	return "\n  " + fmt.Sprint(lines)
}

// checkGTIDFinal verifies the ring's quiesced MySQL members agree on one
// executed GTID set and that it contains every GTID any member ever
// applied: applied implies committed, and committed transactions must
// survive into the converged state.
func (r ring) checkGTIDFinal() {
	r.h.checked("gtid monotonicity")
	sets := make(map[wire.NodeID]*gtid.Set)
	for _, m := range r.c.Members() {
		if m.Spec.Kind != cluster.KindMySQL {
			continue
		}
		_, srv, ok := r.c.MySQLStack(m.Spec.ID)
		if !ok {
			r.violatef("gtid convergence: %s still down after final heal", m.Spec.ID)
			continue
		}
		sets[m.Spec.ID] = srv.GTIDExecuted()
	}
	var ref *gtid.Set
	var refID wire.NodeID
	for id, s := range sets {
		if ref == nil {
			ref, refID = s, id
			continue
		}
		if !ref.Equal(s) {
			r.violatef("gtid convergence: %s executed %v != %s executed %v", refID, ref, id, s)
		}
	}
	applied := r.h.appliedEver[r.id]
	if applied == nil {
		return
	}
	for id, s := range sets {
		if !s.ContainsSet(applied) {
			r.violatef("gtid durability: %s executed %v is missing applied-anywhere GTIDs %v", id, s, applied)
		}
	}
}

// checkPurgeCatchup is the purge catch-up invariant: every MySQL member
// that was restarted after a purge floor was in force must still have
// converged to the primary's executed GTID set — its purged prefix is
// unreplayable, so only the snapshot path (or a log window still above
// the floor) can have gotten it there, and neither is allowed to lose or
// invent transactions.
func (r ring) checkPurgeCatchup() {
	r.h.checked("purge catch-up")
	restarts := make(map[wire.NodeID]uint64)
	r.h.mu.Lock()
	for m, floor := range r.h.postPurgeRestarts {
		if m.shard == r.id {
			restarts[m.node] = floor
		}
	}
	r.h.mu.Unlock()
	if len(restarts) == 0 {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), convergeTimeout)
	primary, err := r.c.AnyPrimary(ctx)
	cancel()
	if err != nil || primary.Server() == nil {
		r.violatef("purge catch-up: no primary to judge against: %v", err)
		return
	}
	ref := primary.Server().GTIDExecuted()
	for id, floor := range restarts {
		_, srv, ok := r.c.MySQLStack(id)
		if !ok {
			continue // logtailer or (impossibly) still down; GTID checks do not apply
		}
		if got := srv.GTIDExecuted(); !got.Equal(ref) {
			r.violatef("purge catch-up: %s restarted under purge floor %d but its executed set %v never reconverged to the primary's %v",
				id, floor, got, ref)
		}
	}
}

// checkElectionSafety asserts at most one member ever claimed leadership
// of any term of this ring, from the role-change records the raft hook
// captured — rings share a transport but must never share an election.
func (r ring) checkElectionSafety() {
	r.h.checked("election safety")
	r.h.mu.Lock()
	defer r.h.mu.Unlock()
	for term, set := range r.h.leaders[r.id] {
		if len(set) > 1 {
			ids := make([]wire.NodeID, 0, len(set))
			for id := range set {
				ids = append(ids, id)
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			r.h.violations = append(r.h.violations,
				fmt.Sprintf("shard %d: election safety: term %d had %d leaders: %v", r.id, term, len(set), ids))
		}
	}
}

// ackedKeys snapshots the acknowledged floors in key order.
func (h *harness) ackedKeys() ([]string, map[string]uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	acked := make(map[string]uint64, len(h.acked))
	keys := make([]string, 0, len(h.acked))
	for k, v := range h.acked {
		acked[k] = v
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, acked
}

// checkDurability re-reads every key's final value linearizably through
// the routed client: an acknowledged write — acked only after quorum
// fsync — must never be lost, no matter how many nodes crashed or which
// ring a split moved the key to.
func (h *harness) checkDurability() {
	owners := make(map[wire.ShardID]bool)
	keys, acked := h.ackedKeys()
	for _, key := range keys {
		owners[h.client.ShardFor(key)] = true
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		res, err := h.client.ReadLinearizable(ctx, key)
		cancel()
		if err != nil {
			h.violatef("durability: final read of %s (acked seq %d) failed: %v", key, acked[key], err)
			continue
		}
		h.checkRead("durability", key, acked[key], res)
	}
	h.mu.Lock()
	h.stats.Checked["durability"] = len(owners)
	h.mu.Unlock()
}

// checkIsolation is the cross-shard leakage invariant: an acknowledged
// key must not be readable through any ring but its owner's (a split
// deletes what it moved), and the shared demux must never have delivered
// a frame to a shard a node does not host — every envelope stayed inside
// its ring while crashes and partitions churned the shared endpoint.
func (h *harness) checkIsolation() {
	h.checked("isolation")
	keys, _ := h.ackedKeys()
	for _, key := range keys {
		home := h.client.ShardFor(key)
		for o := 0; o < h.rt.Shards(); o++ {
			if wire.ShardID(o) == home {
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			res, err := h.rt.Shard(wire.ShardID(o)).ReadLinearizable(ctx, key)
			cancel()
			if err == nil && res.Found {
				h.violatef("isolation: key %q is routed to shard %d but readable on shard %d (value %q)", key, home, o, res.Value)
			}
		}
	}
	for _, id := range h.rt.Nodes() {
		if drops := h.rt.Demux(id).Stats().UnknownShardDrops; drops != 0 {
			h.violatef("isolation: node %s demux saw %d frames for shards it does not host", id, drops)
		}
	}
}

func allEqual[K comparable](m map[K]uint32) bool {
	var ref uint32
	first := true
	for _, v := range m {
		if first {
			ref, first = v, false
			continue
		}
		if v != ref {
			return false
		}
	}
	return true
}
