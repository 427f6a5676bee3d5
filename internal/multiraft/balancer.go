package multiraft

// balancer.go spreads shard leadership across up nodes. The paper's
// automation places primaries deliberately (maintenance drains, load
// spreading); here the policy is the simplest useful one — equalize the
// per-node leader count — built on the graceful TransferLeadership path
// (mock election pre-check, catch-up, real transfer), so a balancing move
// can never elect a lagging leader.

import (
	"context"
	"sort"

	"myraft/internal/cluster"
	"myraft/internal/wire"
)

// BalanceOnce runs one balancing pass: survey per-shard leadership,
// compute the even-spread target ⌈shards/up-voters⌉, and transfer shards
// off overloaded nodes onto the least-loaded up voters. It returns how
// many transfers succeeded. Individual transfer failures (a target
// mid-catch-up rejecting its mock election) are skipped, not fatal — the
// next pass retries.
func (rt *Runtime) BalanceOnce(ctx context.Context) int {
	up := make(map[wire.NodeID]bool)
	var voters []wire.NodeID
	rt.mu.Lock()
	for _, s := range rt.opts.Specs {
		if s.Kind == cluster.KindMySQL && s.Voter && !rt.down[s.ID] {
			up[s.ID] = true
			voters = append(voters, s.ID)
		}
	}
	rt.mu.Unlock()
	if len(voters) == 0 {
		return 0
	}
	shards := rt.shardList()
	target := (len(shards) + len(voters) - 1) / len(voters)

	load := make(map[wire.NodeID]int, len(voters))
	for _, id := range voters {
		load[id] = 0
	}
	byNode := rt.LeadersByNode()
	for id, shards := range byNode {
		if up[id] {
			load[id] = len(shards)
		}
	}

	// Heaviest donors first; within a donor, move its highest shards.
	donors := make([]wire.NodeID, 0, len(byNode))
	for id := range byNode {
		if up[id] && load[id] > target {
			donors = append(donors, id)
		}
	}
	sort.Slice(donors, func(i, j int) bool {
		if load[donors[i]] != load[donors[j]] {
			return load[donors[i]] > load[donors[j]]
		}
		return donors[i] < donors[j]
	})

	moves := 0
	for _, donor := range donors {
		held := append([]wire.ShardID(nil), byNode[donor]...)
		sort.Slice(held, func(i, j int) bool { return held[i] > held[j] })
		for _, shard := range held {
			if load[donor] <= target {
				break
			}
			dest := leastLoaded(voters, load, donor)
			if dest == "" || load[dest] >= target {
				break // nowhere lighter to move to
			}
			select {
			case <-ctx.Done():
				return moves
			default:
			}
			if int(shard) >= len(shards) {
				continue
			}
			if err := shards[shard].TransferLeadership(dest); err != nil {
				continue
			}
			load[donor]--
			load[dest]++
			moves++
		}
	}
	return moves
}

// leastLoaded picks the lightest up voter other than exclude (ties break
// by ID for determinism).
func leastLoaded(voters []wire.NodeID, load map[wire.NodeID]int, exclude wire.NodeID) wire.NodeID {
	var best wire.NodeID
	bestLoad := -1
	for _, id := range voters {
		if id == exclude {
			continue
		}
		if bestLoad < 0 || load[id] < bestLoad || (load[id] == bestLoad && id < best) {
			best = id
			bestLoad = load[id]
		}
	}
	return best
}
