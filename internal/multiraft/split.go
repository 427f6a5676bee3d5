package multiraft

// split.go is the online shard split: carve one shard's widest hash
// range in two, bootstrap a brand-new ring for the upper subrange over
// the shared per-node transports, and cut routed clients over through
// two table versions — a fence generation and a final generation — so
// that no acked write is ever lost.
//
// Protocol (DESIGN.md §11):
//
//  1. addShard: build ring N over the existing demux/fsync groups and
//     bootstrap a leader on the least-loaded voter. The new ring owns no
//     keys yet, so it serves no traffic.
//  2. Fence (version V+1): the moved subrange keeps Shard: source so
//     reads stay served, but Fenced: true rejects routed writes. Writers
//     register in-flight under the table version they validated against
//     BEFORE revalidating their route (writeGate), so after this reload
//     every pre-fence write is either counted or already rejected.
//  3. Drain: wait until no write admitted under a version < V+1 remains
//     in flight. From here no write can land in the moved subrange.
//  4. Copy: wait for the source primary to apply everything it has
//     committed, then snapshot its engine rows (storage's
//     ordering-consistent CheckpointRows) and replay the rows hashing
//     into the moved subrange onto the new ring in chunked multi-row
//     transactions. New-ring followers replicate them through raft; a
//     laggard joining later catches up via the chunked snapshot path.
//  5. Cutover (version V+2): the moved subrange now routes to the new
//     shard, unfenced. Routed writers holding V or V+1 fail their
//     revalidation, count a stale rejection, and retry under V+2.
//  6. Cleanup: delete the moved rows from the source ring in chunked
//     transactions. Reads never saw a gap: until V+2 published, the
//     source still served them.
//
// Safety argument for "no acked write lost": a write is acked only after
// consensus commit on its ring. Acked writes to the moved subrange are
// all admitted under tables < V+1 (later tables fence the subrange), so
// the drain in step 3 waits for them; step 4's WaitForApplied then
// guarantees the copy snapshot contains every one of them, and step 5
// routes all later writes to the ring that holds the copy.

import (
	"context"
	"fmt"
	"sort"
	"time"

	"myraft/internal/cluster"
	"myraft/internal/mysql"
	"myraft/internal/storage"
	"myraft/internal/wire"
)

// splitCopyChunk bounds how many rows one copy/cleanup transaction
// carries; chunking keeps individual raft entries small and resumable.
const splitCopyChunk = 64

// SplitReport describes one completed online shard split.
type SplitReport struct {
	Source   wire.ShardID `json:"source"`
	NewShard wire.ShardID `json:"new_shard"`
	// Start/End is the hash subrange moved to the new shard.
	Start uint32 `json:"start"`
	End   uint32 `json:"end"`
	// RowsMoved counts rows copied to the new ring (and deleted from the
	// source after cutover).
	RowsMoved int `json:"rows_moved"`
	// TableVersion is the routing-table generation serving after cutover.
	TableVersion uint64        `json:"table_version"`
	Elapsed      time.Duration `json:"-"`
}

// addShard builds and bootstraps one more ring over the shared per-node
// transports and fsync groups, returning its shard ID. The new shard
// serves no keys until a table reload routes a range to it. The caller
// holds splitMu (topology changes are serialized).
func (rt *Runtime) addShard(ctx context.Context) (wire.ShardID, error) {
	rt.mu.RLock()
	shard := wire.ShardID(len(rt.shards))
	rt.mu.RUnlock()

	c, err := rt.newShardCluster(shard)
	if err != nil {
		return 0, fmt.Errorf("multiraft: add shard %d: %w", shard, err)
	}

	// Bootstrap on the least-loaded up voter so the split does not pile
	// another leader onto the busiest node.
	var voters []wire.NodeID
	upSet := make(map[wire.NodeID]bool)
	for _, id := range rt.UpNodes() {
		upSet[id] = true
	}
	for _, s := range rt.opts.Specs {
		if s.Kind == cluster.KindMySQL && s.Voter && upSet[s.ID] {
			voters = append(voters, s.ID)
		}
	}
	if len(voters) == 0 {
		c.Close()
		return 0, fmt.Errorf("multiraft: add shard %d: no up MySQL voters", shard)
	}
	load := make(map[wire.NodeID]int)
	for id, shards := range rt.LeadersByNode() {
		load[id] = len(shards)
	}
	at := leastLoaded(voters, load, "")
	if err := c.Bootstrap(ctx, at); err != nil {
		c.Close()
		return 0, fmt.Errorf("multiraft: add shard %d: bootstrap: %w", shard, err)
	}

	rt.mu.Lock()
	rt.shards = append(rt.shards, c)
	bound := len(rt.shards)
	rt.mu.Unlock()
	rt.router.SetShardBound(bound)
	return shard, nil
}

// Split carves the source shard's widest owned hash range in two and
// moves the upper half onto a freshly bootstrapped ring, online, with
// zero acked-write loss (see the protocol at the top of this file).
// Routed clients cut over via stale-version rejection; unrouted traffic
// to other shards is never blocked.
func (rt *Runtime) Split(ctx context.Context, source wire.ShardID) (*SplitReport, error) {
	rt.splitMu.Lock()
	defer rt.splitMu.Unlock()
	start := time.Now()

	if rt.Shard(source) == nil {
		return nil, fmt.Errorf("multiraft: split: unknown shard %d", source)
	}
	tab := rt.router.Table()
	moved, ok := widestRange(tab, source)
	if !ok {
		return nil, fmt.Errorf("multiraft: split: shard %d owns no splittable range", source)
	}
	mid := moved.Start + (moved.End-moved.Start)/2
	upper := Range{Start: mid + 1, End: moved.End}

	// 1. New ring, leader elected, owning nothing yet.
	newShard, err := rt.addShard(ctx)
	if err != nil {
		return nil, err
	}

	// 2. Fence generation V+1: upper subrange still reads from source,
	// rejects routed writes.
	fenced := retarget(tab, moved, []Range{
		{Start: moved.Start, End: mid, Shard: source},
		{Start: upper.Start, End: upper.End, Shard: source, Fenced: true},
	})
	fenced.Version = tab.Version + 1
	if err := rt.router.Reload(fenced); err != nil {
		return nil, fmt.Errorf("multiraft: split: fence reload: %w", err)
	}
	// On any later failure, roll the fence forward to an unfenced table
	// that still routes everything to the source — the split aborts with
	// no ownership change and writers unblock.
	committed := false
	defer func() {
		if committed {
			return
		}
		rollback := retarget(tab, moved, []Range{moved})
		rollback.Version = rt.router.Version() + 1
		_ = rt.router.Reload(rollback)
	}()

	// 3. Drain every write admitted under a pre-fence table.
	if err := rt.gate.drainBelow(ctx, fenced.Version); err != nil {
		return nil, fmt.Errorf("multiraft: split: drain: %w", err)
	}

	// 4. Copy the moved rows from a fully applied source primary.
	srcRows, err := rt.fencedRows(ctx, source, upper)
	if err != nil {
		return nil, fmt.Errorf("multiraft: split: %w", err)
	}
	if err := rt.copyRows(ctx, newShard, srcRows); err != nil {
		return nil, fmt.Errorf("multiraft: split: copy: %w", err)
	}

	// 5. Cutover generation V+2: the upper subrange routes to the new
	// shard. Every routed writer still holding an older version takes a
	// stale rejection and retries against the new owner.
	final := retarget(tab, moved, []Range{
		{Start: moved.Start, End: mid, Shard: source},
		{Start: upper.Start, End: upper.End, Shard: newShard},
	})
	final.Version = fenced.Version + 1
	if err := rt.router.Reload(final); err != nil {
		return nil, fmt.Errorf("multiraft: split: cutover reload: %w", err)
	}
	committed = true
	rt.splits.Add(1)

	// 6. Best-effort cleanup: the moved rows are dead weight on the
	// source now that nothing routes to them there.
	if err := rt.deleteRows(ctx, source, srcRows); err != nil {
		return nil, fmt.Errorf("multiraft: split: cleanup: %w", err)
	}

	return &SplitReport{
		Source:       source,
		NewShard:     newShard,
		Start:        upper.Start,
		End:          upper.End,
		RowsMoved:    len(srcRows),
		TableVersion: final.Version,
		Elapsed:      time.Since(start),
	}, nil
}

// widestRange picks the source shard's widest owned range — the one
// whose halving moves the most key space.
func widestRange(t Table, shard wire.ShardID) (Range, bool) {
	var best Range
	found := false
	for _, r := range t.Ranges {
		if r.Shard != shard || r.Fenced {
			continue
		}
		if !found || r.End-r.Start > best.End-best.Start {
			best, found = r, true
		}
	}
	if !found || best.End == best.Start {
		return Range{}, false
	}
	return best, true
}

// retarget returns a copy of the table with one range replaced by the
// given subranges (which must cover exactly the replaced span).
func retarget(t Table, old Range, with []Range) Table {
	out := Table{Version: t.Version}
	for _, r := range t.Ranges {
		if r.Start == old.Start && r.End == old.End && r.Shard == old.Shard {
			out.Ranges = append(out.Ranges, with...)
			continue
		}
		out.Ranges = append(out.Ranges, r)
	}
	sort.Slice(out.Ranges, func(i, j int) bool { return out.Ranges[i].Start < out.Ranges[j].Start })
	return out
}

// splitRow is one row captured for the move, in deterministic key order.
type splitRow struct {
	key   string
	value []byte
}

// fencedRows waits for the source primary to apply everything committed,
// then snapshots the rows hashing into the fenced subrange. Called only
// after the drain: no write to the subrange can commit anymore, so the
// snapshot is complete.
func (rt *Runtime) fencedRows(ctx context.Context, source wire.ShardID, r Range) ([]splitRow, error) {
	c := rt.Shard(source)
	primary, srv, err := shardPrimary(ctx, c)
	if err != nil {
		return nil, err
	}
	commit := primary.Node().Status().CommitIndex
	if err := srv.WaitForApplied(ctx, commit); err != nil {
		return nil, fmt.Errorf("wait applied: %w", err)
	}
	rows, _ := srv.Engine().CheckpointRows()
	var out []splitRow
	for k, v := range rows {
		if h := hashKey(k); h >= r.Start && h <= r.End {
			out = append(out, splitRow{key: k, value: v})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out, nil
}

// copyRows replays the moved rows onto the new ring in chunked
// transactions through its consensus commit path.
func (rt *Runtime) copyRows(ctx context.Context, shard wire.ShardID, rows []splitRow) error {
	return rt.chunkedWrite(ctx, shard, rows, func(t *storage.Txn, r splitRow) error {
		return t.Set(r.key, r.value)
	})
}

// deleteRows removes the moved rows from the source ring after cutover.
func (rt *Runtime) deleteRows(ctx context.Context, shard wire.ShardID, rows []splitRow) error {
	return rt.chunkedWrite(ctx, shard, rows, func(t *storage.Txn, r splitRow) error {
		return t.Delete(r.key)
	})
}

func (rt *Runtime) chunkedWrite(ctx context.Context, shard wire.ShardID, rows []splitRow, apply func(*storage.Txn, splitRow) error) error {
	c := rt.Shard(shard)
	for start := 0; start < len(rows); start += splitCopyChunk {
		chunk := rows[start:min(start+splitCopyChunk, len(rows))]
		// Re-resolve the primary per chunk so a mid-copy failover only
		// costs a retry of one chunk, not the whole move.
		for {
			_, srv, err := shardPrimary(ctx, c)
			if err != nil {
				return err
			}
			_, err = srv.ExecuteWrite(ctx, func(t *storage.Txn) error {
				for _, r := range chunk {
					if err := apply(t, r); err != nil {
						return err
					}
				}
				return nil
			})
			if err == nil {
				break
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// shardPrimary resolves one shard's current primary member and server.
func shardPrimary(ctx context.Context, c *cluster.Cluster) (*cluster.Member, *mysql.Server, error) {
	m, err := c.AnyPrimary(ctx)
	if err != nil {
		return nil, nil, err
	}
	if m.Server() == nil || m.Node() == nil {
		return nil, nil, fmt.Errorf("primary %s has no mysql stack", m.Spec.ID)
	}
	return m, m.Server(), nil
}
