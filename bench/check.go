package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"myraft/internal/cluster"
	"myraft/internal/multiraft"
	"myraft/internal/wire"
)

// drainTimeout bounds how long the gate waits for replicas to converge
// once the load has stopped.
const drainTimeout = 20 * time.Second

// checkRuntime is the correctness gate run after every workload. With
// the load stopped it waits for every replica to apply the committed log,
// then requires that
//   - every key reads back, linearizably, as its last acknowledged write;
//   - the engine checksums of each shard's MySQL members agree;
//   - the log checksums of each shard's members agree from the first
//     index they all retain.
//
// It returns one line per violation.
func checkRuntime(ctx context.Context, rt *multiraft.Runtime, ks *keyState) []string {
	ctx, cancel := context.WithTimeout(ctx, drainTimeout+opTimeout)
	defer cancel()
	var problems []string
	for sh, ring := range rings(rt) {
		if err := drainShard(ctx, ring); err != nil {
			problems = append(problems, fmt.Sprintf("shard %d: %v", sh, err))
		}
	}
	return append(problems, checkKeys(ctx, rt, ks)...)
}

// drainShard waits until every MySQL member has applied the leader's
// commit index and the engine and log checksums agree.
func drainShard(ctx context.Context, ring *cluster.Cluster) error {
	deadline := time.Now().Add(drainTimeout)
	var last error
	for time.Now().Before(deadline) && ctx.Err() == nil {
		if last = shardConverged(ctx, ring); last == nil {
			return nil
		}
		sleepCtx(ctx, 5*time.Millisecond)
	}
	return fmt.Errorf("replicas did not converge: %w", last)
}

func shardConverged(ctx context.Context, ring *cluster.Cluster) error {
	leader := ring.Leader()
	if leader == nil || leader.Node() == nil {
		return fmt.Errorf("no leader")
	}
	commit := leader.Node().CommitIndex()
	for _, m := range ring.Members() {
		if srv := m.Server(); srv != nil && !m.IsDown() {
			wctx, cancel := context.WithTimeout(ctx, time.Second)
			err := srv.WaitForApplied(wctx, commit)
			cancel()
			if err != nil {
				return fmt.Errorf("%s has not applied index %d: %w", m.Spec.ID, commit, err)
			}
		}
	}
	if err := allEqual("engine checksum", ring.EngineChecksums()); err != nil {
		return err
	}
	logs, err := ring.LogChecksums(ring.LogCommonStart())
	if err != nil {
		return fmt.Errorf("log checksums: %w", err)
	}
	return allEqual("log checksum", logs)
}

func allEqual(what string, sums map[wire.NodeID]uint32) error {
	var first wire.NodeID
	for id, sum := range sums {
		if first == "" {
			first = id
		} else if sum != sums[first] {
			return fmt.Errorf("%s differs: %s=%08x %s=%08x", what, first, sums[first], id, sum)
		}
	}
	if first == "" {
		return fmt.Errorf("%s: no members reported", what)
	}
	return nil
}

// checkKeys reads every key linearizably and compares it with the last
// acknowledged write. On an idle ring a ReadIndex round waits for the next
// heartbeat, so many readers share each round.
func checkKeys(ctx context.Context, rt *multiraft.Runtime, ks *keyState) []string {
	const readers = 250
	var (
		mu       sync.Mutex
		problems []string
		wg       sync.WaitGroup
	)
	report := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		if len(problems) < 10 {
			problems = append(problems, fmt.Sprintf(format, args...))
		}
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cl := rt.NewClient(0)
			for k := r; k < keyCount; k += readers {
				res, err := cl.ReadLinearizable(ctx, keyName(k))
				switch {
				case err != nil:
					report("%s: final read failed: %v", keyName(k), err)
					return
				case !res.Found || !ks.holds(res.Value, k):
					report("%s: acknowledged write seq %d is not what a linearizable read returns", keyName(k), ks.lastSeq[k])
				}
			}
		}(r)
	}
	wg.Wait()
	return problems
}
