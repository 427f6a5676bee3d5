// Package quorum implements the quorum strategies of FlexiRaft (§4.1 of
// the paper). Vanilla Raft uses a simple majority of voters for both data
// commits and leader elections. FlexiRaft instead defines quorums in terms
// of majorities within disjoint groups of members — geographical regions —
// trading fault tolerance for dramatically lower commit latency.
//
// The strategy consulted for a data commit is parameterized by the current
// leader's region; the strategy consulted for an election additionally
// needs the region of the last known leader, because election quorums must
// intersect every data-commit quorum a previous leader may have used.
package quorum

import (
	"slices"

	"myraft/internal/wire"
)

// Strategy decides when acknowledgement sets satisfy data-commit and
// leader-election quorums.
type Strategy interface {
	// Name identifies the strategy in logs and benchmarks.
	Name() string
	// DataCommitSatisfied reports whether the set of acknowledging voters
	// (including the leader's self-vote) commits a log entry, for a
	// leader in leaderRegion.
	DataCommitSatisfied(cfg wire.Config, leaderRegion wire.Region, acks map[wire.NodeID]bool) bool
	// ElectionSatisfied reports whether the set of granted votes elects a
	// candidate in candidateRegion, given the region of the last known
	// leader ("" when unknown).
	ElectionSatisfied(cfg wire.Config, candidateRegion, lastLeaderRegion wire.Region, votes map[wire.NodeID]bool) bool
}

// countAcked returns how many of the members are in the ack set.
func countAcked(members []wire.Member, acks map[wire.NodeID]bool) int {
	n := 0
	for _, m := range members {
		if acks[m.ID] {
			n++
		}
	}
	return n
}

// hasMajority reports whether acks covers a strict majority of members.
// An empty member list is unsatisfiable, never vacuously true: a quorum
// that nobody can vote in must not commit anything.
func hasMajority(members []wire.Member, acks map[wire.NodeID]bool) bool {
	if len(members) == 0 {
		return false
	}
	return countAcked(members, acks) >= len(members)/2+1
}

// Majority is vanilla Raft: a strict majority of all voters for both data
// commits and elections.
type Majority struct{}

// Name implements Strategy.
func (Majority) Name() string { return "majority" }

// DataCommitSatisfied implements Strategy.
func (Majority) DataCommitSatisfied(cfg wire.Config, _ wire.Region, acks map[wire.NodeID]bool) bool {
	return hasMajority(cfg.Voters(), acks)
}

// ElectionSatisfied implements Strategy.
func (Majority) ElectionSatisfied(cfg wire.Config, _, _ wire.Region, votes map[wire.NodeID]bool) bool {
	return hasMajority(cfg.Voters(), votes)
}

// StaticAnyRegion is the flexible-quorum construction the paper rejects
// (§4.1): a data commit needs a majority in any one region, so an election
// must collect a majority in every region — any single region's disruption
// blocks elections. It is implemented as a baseline for the quorum-mode
// ablation.
type StaticAnyRegion struct{}

// Name implements Strategy.
func (StaticAnyRegion) Name() string { return "static-any-region" }

// DataCommitSatisfied implements Strategy.
func (StaticAnyRegion) DataCommitSatisfied(cfg wire.Config, _ wire.Region, acks map[wire.NodeID]bool) bool {
	for _, r := range cfg.Regions() {
		if hasMajority(cfg.VotersInRegion(r), acks) {
			return true
		}
	}
	return false
}

// ElectionSatisfied implements Strategy.
func (StaticAnyRegion) ElectionSatisfied(cfg wire.Config, _, _ wire.Region, votes map[wire.NodeID]bool) bool {
	regions := cfg.Regions()
	if len(regions) == 0 {
		return false
	}
	for _, r := range regions {
		if !hasMajority(cfg.VotersInRegion(r), votes) {
			return false
		}
	}
	return true
}

// SingleRegionDynamic is FlexiRaft's production mode (§4.1): the data
// commit quorum is a majority of the voters in the current leader's
// region, so commits complete at intra-region latency. The quorum moves
// with the leader ("dynamic"). An election quorum must intersect the last
// data quorum, so a candidate needs a majority of its own region (its
// future data quorum) and a majority of the last known leader's region.
// When the last leader is unknown (fresh cluster, lost state), it falls
// back to a majority of every region, which intersects any possible prior
// data quorum.
type SingleRegionDynamic struct{}

// Name implements Strategy.
func (SingleRegionDynamic) Name() string { return "single-region-dynamic" }

// DataCommitSatisfied implements Strategy.
func (SingleRegionDynamic) DataCommitSatisfied(cfg wire.Config, leaderRegion wire.Region, acks map[wire.NodeID]bool) bool {
	return hasMajority(cfg.VotersInRegion(leaderRegion), acks)
}

// ElectionSatisfied implements Strategy.
func (SingleRegionDynamic) ElectionSatisfied(cfg wire.Config, candidateRegion, lastLeaderRegion wire.Region, votes map[wire.NodeID]bool) bool {
	if !hasMajority(cfg.VotersInRegion(candidateRegion), votes) {
		return false
	}
	if lastLeaderRegion == "" {
		// Unknown history: intersect every possible prior data quorum.
		for _, r := range cfg.Regions() {
			if !hasMajority(cfg.VotersInRegion(r), votes) {
				return false
			}
		}
		return true
	}
	return hasMajority(cfg.VotersInRegion(lastLeaderRegion), votes)
}

// Grid requires region-majorities in a majority of regions for both data
// commits and elections. Two such quorums always intersect (two majorities
// of regions share a region, and two majorities within that region share a
// member), making Grid self-intersecting without leader-region tracking.
// It is the "multi-region commit quorum" configuration mentioned in §4.1
// for applications choosing consistency over latency.
type Grid struct{}

// Name implements Strategy.
func (Grid) Name() string { return "grid" }

func gridSatisfied(cfg wire.Config, acks map[wire.NodeID]bool) bool {
	regions := cfg.Regions()
	if len(regions) == 0 {
		return false
	}
	n := 0
	for _, r := range regions {
		if hasMajority(cfg.VotersInRegion(r), acks) {
			n++
		}
	}
	return n >= len(regions)/2+1
}

// DataCommitSatisfied implements Strategy.
func (Grid) DataCommitSatisfied(cfg wire.Config, _ wire.Region, acks map[wire.NodeID]bool) bool {
	return gridSatisfied(cfg, acks)
}

// ElectionSatisfied implements Strategy.
func (Grid) ElectionSatisfied(cfg wire.Config, _, _ wire.Region, votes map[wire.NodeID]bool) bool {
	return gridSatisfied(cfg, votes)
}

// Voters is the voter layout of one Config — who votes, grouped by region
// — computed once per membership change so that the leader's per-ack
// commit recompute builds nothing. A match vector passed alongside it
// holds one match index per member of that Config, in Members order; the
// entries of non-voters are ignored by the built-in strategies.
type Voters struct {
	cfg     wire.Config
	all     []int         // positions in cfg.Members of every voter
	regions []wire.Region // distinct voter regions, first-seen order
	groups  [][]int       // per region, the positions of its voters
}

// NewVoters lays out cfg, which the caller must not modify afterwards.
func NewVoters(cfg wire.Config) *Voters {
	v := &Voters{cfg: cfg}
	for i, m := range cfg.Members {
		if !m.Voter {
			continue
		}
		v.all = append(v.all, i)
		r := 0
		for r < len(v.regions) && v.regions[r] != m.Region {
			r++
		}
		if r == len(v.regions) {
			v.regions = append(v.regions, m.Region)
			v.groups = append(v.groups, nil)
		}
		v.groups[r] = append(v.groups[r], i)
	}
	return v
}

// group returns the voter positions of region r (nil if it has none).
func (v *Voters) group(r wire.Region) []int {
	for i, vr := range v.regions {
		if vr == r {
			return v.groups[i]
		}
	}
	return nil
}

// watermark returns the highest index replicated to a strict majority of
// group: the (len/2+1)-th largest of its match values, 0 when the group is
// empty (a quorum nobody can vote in commits nothing). Groups are a
// handful of members, so it counts instead of sorting a copy.
func watermark(match []uint64, group []int) uint64 {
	need := len(group)/2 + 1
	var best uint64
	for _, i := range group {
		x := match[i]
		if x <= best {
			continue
		}
		n := 0
		for _, j := range group {
			if match[j] >= x {
				n++
			}
		}
		if n >= need {
			best = x
		}
	}
	return best
}

// CommittedIndex returns the highest log index whose acknowledgement set
// satisfies s's data-commit quorum, given each member's match index (the
// highest entry known durable on it, the leader's own included). The
// built-in strategies are all majorities within groups of voters, so their
// answer is a composition of group watermarks and allocates nothing; any
// other Strategy is asked about candidate indexes one by one.
func CommittedIndex(s Strategy, v *Voters, leaderRegion wire.Region, match []uint64) uint64 {
	switch s.(type) {
	case Majority:
		return watermark(match, v.all)
	case SingleRegionDynamic:
		return watermark(match, v.group(leaderRegion))
	case StaticAnyRegion:
		var best uint64
		for _, g := range v.groups {
			best = max(best, watermark(match, g))
		}
		return best
	case Grid:
		// The highest region watermark that a majority of regions reach.
		// Watermarks are recomputed per comparison rather than kept in a
		// scratch slice: a handful of regions of a handful of voters.
		need := len(v.groups)/2 + 1
		var best uint64
		for _, g := range v.groups {
			w := watermark(match, g)
			if w <= best {
				continue
			}
			n := 0
			for _, h := range v.groups {
				if watermark(match, h) >= w {
					n++
				}
			}
			if n >= need {
				best = w
			}
		}
		return best
	}
	return committedIndexByAcks(s, v.cfg, leaderRegion, match)
}

// committedIndexByAcks is CommittedIndex for an arbitrary Strategy (the
// quorum fixer's override, and the oracle the built-in paths are tested
// against): the candidate committed indexes are exactly the distinct
// match values, tested against DataCommitSatisfied in descending order.
func committedIndexByAcks(s Strategy, cfg wire.Config, leaderRegion wire.Region, match []uint64) uint64 {
	values := make([]uint64, 0, len(match))
	for _, m := range match {
		if m > 0 && !slices.Contains(values, m) {
			values = append(values, m)
		}
	}
	slices.Sort(values)
	for i := len(values) - 1; i >= 0; i-- {
		acks := make(map[wire.NodeID]bool, len(match))
		for j, m := range match {
			if m >= values[i] {
				acks[cfg.Members[j].ID] = true
			}
		}
		if s.DataCommitSatisfied(cfg, leaderRegion, acks) {
			return values[i]
		}
	}
	return 0
}

// RegionWatermarks returns, per region, the highest index replicated to a
// majority of that region's voters. FlexiRaft maintains these watermarks
// to commit from the in-region quorum (§4.1) and to gate log purging until
// entries have been shipped out of region (§A.1).
func (v *Voters) RegionWatermarks(match []uint64) map[wire.Region]uint64 {
	out := make(map[wire.Region]uint64, len(v.regions))
	for i, r := range v.regions {
		out[r] = watermark(match, v.groups[i])
	}
	return out
}

// ByName returns the strategy with the given Name, defaulting to Majority
// for unknown names.
func ByName(name string) Strategy {
	switch name {
	case "single-region-dynamic":
		return SingleRegionDynamic{}
	case "static-any-region":
		return StaticAnyRegion{}
	case "grid":
		return Grid{}
	default:
		return Majority{}
	}
}
