package quorum

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"myraft/internal/wire"
)

// paperTopology builds the evaluation topology of §6.1: a primary region
// with one MySQL and two logtailers, five follower regions with one MySQL
// and two logtailers each, and two learner (non-voting) members.
func paperTopology() wire.Config {
	var c wire.Config
	for r := 0; r < 6; r++ {
		region := wire.Region(fmt.Sprintf("region-%d", r))
		c.Members = append(c.Members, wire.Member{
			ID: wire.NodeID(fmt.Sprintf("mysql-%d", r)), Region: region, Voter: true,
		})
		for l := 0; l < 2; l++ {
			c.Members = append(c.Members, wire.Member{
				ID:     wire.NodeID(fmt.Sprintf("lt-%d-%d", r, l)),
				Region: region, Voter: true, Witness: true,
			})
		}
	}
	c.Members = append(c.Members,
		wire.Member{ID: "learner-0", Region: "region-1", Voter: false},
		wire.Member{ID: "learner-1", Region: "region-2", Voter: false},
	)
	return c
}

func acks(ids ...wire.NodeID) map[wire.NodeID]bool {
	m := make(map[wire.NodeID]bool)
	for _, id := range ids {
		m[id] = true
	}
	return m
}

func TestMajorityDataCommit(t *testing.T) {
	cfg := paperTopology() // 18 voters, majority = 10
	s := Majority{}
	a := acks()
	for r := 0; r < 3; r++ {
		a[wire.NodeID(fmt.Sprintf("mysql-%d", r))] = true
		a[wire.NodeID(fmt.Sprintf("lt-%d-0", r))] = true
		a[wire.NodeID(fmt.Sprintf("lt-%d-1", r))] = true
	}
	if s.DataCommitSatisfied(cfg, "region-0", a) {
		t.Fatal("9/18 voters satisfied majority")
	}
	a["mysql-3"] = true
	if !s.DataCommitSatisfied(cfg, "region-0", a) {
		t.Fatal("10/18 voters did not satisfy majority")
	}
}

func TestMajorityIgnoresLearners(t *testing.T) {
	cfg := paperTopology()
	s := Majority{}
	a := acks("learner-0", "learner-1")
	for r := 0; r < 3; r++ {
		a[wire.NodeID(fmt.Sprintf("mysql-%d", r))] = true
		a[wire.NodeID(fmt.Sprintf("lt-%d-0", r))] = true
		a[wire.NodeID(fmt.Sprintf("lt-%d-1", r))] = true
	}
	// 9 voters + 2 learners: learners must not count.
	if s.DataCommitSatisfied(cfg, "region-0", a) {
		t.Fatal("learner acks counted toward quorum")
	}
}

func TestSingleRegionDynamicDataCommit(t *testing.T) {
	cfg := paperTopology()
	s := SingleRegionDynamic{}
	// Leader in region-0: self-vote plus one in-region logtailer = 2 of 3.
	if !s.DataCommitSatisfied(cfg, "region-0", acks("mysql-0", "lt-0-0")) {
		t.Fatal("in-region 2/3 did not commit")
	}
	// One ack alone does not.
	if s.DataCommitSatisfied(cfg, "region-0", acks("mysql-0")) {
		t.Fatal("1/3 committed")
	}
	// Out-of-region acks are irrelevant.
	a := acks("mysql-0", "mysql-1", "mysql-2", "mysql-3", "mysql-4", "mysql-5")
	if s.DataCommitSatisfied(cfg, "region-0", a) {
		t.Fatal("out-of-region acks committed an in-region quorum")
	}
}

func TestSingleRegionDynamicElection(t *testing.T) {
	cfg := paperTopology()
	s := SingleRegionDynamic{}
	// Candidate in region-1, last leader in region-0: needs majorities of
	// both regions.
	v := acks("mysql-1", "lt-1-0")
	if s.ElectionSatisfied(cfg, "region-1", "region-0", v) {
		t.Fatal("elected without last-leader-region majority")
	}
	v["lt-0-0"] = true
	v["lt-0-1"] = true
	if !s.ElectionSatisfied(cfg, "region-1", "region-0", v) {
		t.Fatal("both-region majorities did not elect")
	}
	// Same-region succession: candidate in the last leader's region only
	// needs that one region.
	if !s.ElectionSatisfied(cfg, "region-0", "region-0", acks("lt-0-0", "lt-0-1")) {
		t.Fatal("same-region succession failed")
	}
}

func TestSingleRegionDynamicElectionUnknownHistory(t *testing.T) {
	cfg := paperTopology()
	s := SingleRegionDynamic{}
	// Unknown last leader: needs a majority of every region.
	v := make(map[wire.NodeID]bool)
	for r := 0; r < 6; r++ {
		v[wire.NodeID(fmt.Sprintf("mysql-%d", r))] = true
		v[wire.NodeID(fmt.Sprintf("lt-%d-0", r))] = true
	}
	if !s.ElectionSatisfied(cfg, "region-0", "", v) {
		t.Fatal("all-region majorities did not elect with unknown history")
	}
	delete(v, "mysql-5")
	delete(v, "lt-5-0")
	if s.ElectionSatisfied(cfg, "region-0", "", v) {
		t.Fatal("elected with a region lacking majority and unknown history")
	}
}

func TestStaticAnyRegion(t *testing.T) {
	cfg := paperTopology()
	s := StaticAnyRegion{}
	// Any single region majority commits.
	if !s.DataCommitSatisfied(cfg, "", acks("mysql-3", "lt-3-1")) {
		t.Fatal("region-3 majority did not commit")
	}
	// Election needs every region.
	v := make(map[wire.NodeID]bool)
	for r := 0; r < 5; r++ {
		v[wire.NodeID(fmt.Sprintf("mysql-%d", r))] = true
		v[wire.NodeID(fmt.Sprintf("lt-%d-0", r))] = true
	}
	if s.ElectionSatisfied(cfg, "", "", v) {
		t.Fatal("elected while region-5 had no majority")
	}
	v["mysql-5"] = true
	v["lt-5-0"] = true
	if !s.ElectionSatisfied(cfg, "", "", v) {
		t.Fatal("all-region majorities did not elect")
	}
}

func TestGrid(t *testing.T) {
	cfg := paperTopology() // 6 regions; grid needs majorities in 4
	s := Grid{}
	v := make(map[wire.NodeID]bool)
	for r := 0; r < 3; r++ {
		v[wire.NodeID(fmt.Sprintf("mysql-%d", r))] = true
		v[wire.NodeID(fmt.Sprintf("lt-%d-0", r))] = true
	}
	if s.DataCommitSatisfied(cfg, "", v) {
		t.Fatal("3/6 region majorities satisfied grid")
	}
	v["mysql-3"] = true
	v["lt-3-0"] = true
	if !s.DataCommitSatisfied(cfg, "", v) {
		t.Fatal("4/6 region majorities did not satisfy grid")
	}
}

func TestEmptyConfigNeverSatisfied(t *testing.T) {
	var cfg wire.Config
	all := acks("ghost")
	for _, s := range []Strategy{Majority{}, StaticAnyRegion{}, SingleRegionDynamic{}, Grid{}} {
		if s.DataCommitSatisfied(cfg, "r", all) {
			t.Errorf("%s: empty config committed", s.Name())
		}
		if s.ElectionSatisfied(cfg, "r", "r", all) {
			t.Errorf("%s: empty config elected", s.Name())
		}
	}
}

// matchVector lays a per-node match map out in cfg.Members order.
func matchVector(cfg wire.Config, match map[wire.NodeID]uint64) []uint64 {
	out := make([]uint64, len(cfg.Members))
	for i, m := range cfg.Members {
		out[i] = match[m.ID]
	}
	return out
}

func committed(s Strategy, cfg wire.Config, leaderRegion wire.Region, match map[wire.NodeID]uint64) uint64 {
	return CommittedIndex(s, NewVoters(cfg), leaderRegion, matchVector(cfg, match))
}

func TestCommittedIndexMajority(t *testing.T) {
	cfg := wire.Config{Members: []wire.Member{
		{ID: "a", Region: "r1", Voter: true},
		{ID: "b", Region: "r1", Voter: true},
		{ID: "c", Region: "r2", Voter: true},
		{ID: "d", Region: "r2", Voter: true},
		{ID: "e", Region: "r3", Voter: true},
	}}
	match := map[wire.NodeID]uint64{"a": 10, "b": 7, "c": 5, "d": 3, "e": 1}
	if got := committed(Majority{}, cfg, "r1", match); got != 5 {
		t.Fatalf("majority committed index = %d, want 5 (median)", got)
	}
}

func TestCommittedIndexSingleRegionDynamic(t *testing.T) {
	cfg := wire.Config{Members: []wire.Member{
		{ID: "leader", Region: "r1", Voter: true},
		{ID: "lt1", Region: "r1", Voter: true, Witness: true},
		{ID: "lt2", Region: "r1", Voter: true, Witness: true},
		{ID: "remote", Region: "r2", Voter: true},
	}}
	match := map[wire.NodeID]uint64{"leader": 100, "lt1": 99, "lt2": 4, "remote": 2}
	if got := committed(SingleRegionDynamic{}, cfg, "r1", match); got != 99 {
		t.Fatalf("committed = %d, want 99 (in-region 2/3)", got)
	}
	// Without the logtailer, commit stalls at the slowest in-region pair.
	match["lt1"] = 0
	if got := committed(SingleRegionDynamic{}, cfg, "r1", match); got != 4 {
		t.Fatalf("committed = %d, want 4", got)
	}
}

func TestCommittedIndexEmptyMatch(t *testing.T) {
	cfg := paperTopology()
	if got := committed(Majority{}, cfg, "region-0", nil); got != 0 {
		t.Fatalf("empty match committed %d", got)
	}
}

func TestRegionWatermarks(t *testing.T) {
	cfg := wire.Config{Members: []wire.Member{
		{ID: "a", Region: "r1", Voter: true},
		{ID: "b", Region: "r1", Voter: true, Witness: true},
		{ID: "c", Region: "r1", Voter: true, Witness: true},
		{ID: "d", Region: "r2", Voter: true},
		{ID: "e", Region: "r2", Voter: true, Witness: true},
	}}
	match := map[wire.NodeID]uint64{"a": 10, "b": 8, "c": 2, "d": 5, "e": 3}
	w := NewVoters(cfg).RegionWatermarks(matchVector(cfg, match))
	if w["r1"] != 8 {
		t.Fatalf("r1 watermark = %d, want 8", w["r1"])
	}
	if w["r2"] != 3 {
		t.Fatalf("r2 watermark = %d, want 3", w["r2"])
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"majority", "single-region-dynamic", "static-any-region", "grid"} {
		if got := ByName(name).Name(); got != name {
			t.Errorf("ByName(%q).Name() = %q", name, got)
		}
	}
	if ByName("bogus").Name() != "majority" {
		t.Error("unknown name did not default to majority")
	}
}

// randomSubset picks each voter with probability p.
func randomSubset(cfg wire.Config, rng *rand.Rand, p float64) map[wire.NodeID]bool {
	s := make(map[wire.NodeID]bool)
	for _, m := range cfg.Voters() {
		if rng.Float64() < p {
			s[m.ID] = true
		}
	}
	return s
}

func intersects(a, b map[wire.NodeID]bool) bool {
	for id := range a {
		if b[id] {
			return true
		}
	}
	return false
}

// TestQuorumIntersectionProperty verifies the safety-critical invariant:
// for every strategy, any satisfied election quorum intersects any
// satisfied data-commit quorum of the last known leader. For
// SingleRegionDynamic the data quorum region is the last leader's region;
// for the others the invariant must hold for every leader region.
func TestQuorumIntersectionProperty(t *testing.T) {
	cfg := paperTopology()
	regions := cfg.Regions()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, s := range []Strategy{Majority{}, StaticAnyRegion{}, SingleRegionDynamic{}, Grid{}} {
			leaderRegion := regions[rng.Intn(len(regions))]
			candidateRegion := regions[rng.Intn(len(regions))]
			dataQ := randomSubset(cfg, rng, 0.3+rng.Float64()*0.7)
			electQ := randomSubset(cfg, rng, 0.3+rng.Float64()*0.7)
			if !s.DataCommitSatisfied(cfg, leaderRegion, dataQ) {
				continue
			}
			if !s.ElectionSatisfied(cfg, candidateRegion, leaderRegion, electQ) {
				continue
			}
			if !intersects(dataQ, electQ) {
				t.Logf("%s: disjoint data quorum (leader %s) and election quorum (candidate %s)",
					s.Name(), leaderRegion, candidateRegion)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestTwoElectionQuorumsShareLastLeaderRegion verifies election safety for
// SingleRegionDynamic: two elections with the same last-known leader both
// need that region's majority, so they intersect and cannot both win the
// same term.
func TestTwoElectionQuorumsShareLastLeaderRegion(t *testing.T) {
	cfg := paperTopology()
	regions := cfg.Regions()
	s := SingleRegionDynamic{}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		last := regions[rng.Intn(len(regions))]
		c1 := regions[rng.Intn(len(regions))]
		c2 := regions[rng.Intn(len(regions))]
		q1 := randomSubset(cfg, rng, 0.5)
		q2 := randomSubset(cfg, rng, 0.5)
		if s.ElectionSatisfied(cfg, c1, last, q1) && s.ElectionSatisfied(cfg, c2, last, q2) {
			return intersects(q1, q2)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestCommittedIndexMonotoneProperty: raising any match index never
// lowers the committed index.
func TestCommittedIndexMonotoneProperty(t *testing.T) {
	cfg := paperTopology()
	voters := cfg.Voters()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, s := range []Strategy{Majority{}, SingleRegionDynamic{}, Grid{}} {
			match := make(map[wire.NodeID]uint64)
			for _, m := range voters {
				match[m.ID] = uint64(rng.Intn(100))
			}
			before := committed(s, cfg, "region-0", match)
			// Raise one random voter.
			v := voters[rng.Intn(len(voters))]
			match[v.ID] += uint64(rng.Intn(50))
			after := committed(s, cfg, "region-0", match)
			if after < before {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// randomConfig builds a membership of up to 12 members over up to 4
// regions with a random mix of voters and learners; it may have no voters
// at all, or regions without any.
func randomConfig(rng *rand.Rand) wire.Config {
	var cfg wire.Config
	regions := 1 + rng.Intn(4)
	for i, n := 0, rng.Intn(13); i < n; i++ {
		cfg.Members = append(cfg.Members, wire.Member{
			ID:     wire.NodeID(fmt.Sprintf("n%d", i)),
			Region: wire.Region(fmt.Sprintf("r%d", rng.Intn(regions))),
			Voter:  rng.Intn(4) != 0,
		})
	}
	return cfg
}

// TestCommittedIndexMatchesAckSetOracle: for the four built-in strategies
// the watermark composition returns exactly what testing every candidate
// index against DataCommitSatisfied returns, over random memberships and
// match vectors (zeros, ties and learners included) and leader regions
// with and without voters.
func TestCommittedIndexMatchesAckSetOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := randomConfig(rng)
		v := NewVoters(cfg)
		match := make([]uint64, len(cfg.Members))
		for i := range match {
			match[i] = uint64(rng.Intn(6)) // small range: many ties and zeros
		}
		leaderRegion := wire.Region(fmt.Sprintf("r%d", rng.Intn(5)))
		for _, s := range []Strategy{Majority{}, SingleRegionDynamic{}, StaticAnyRegion{}, Grid{}} {
			got := CommittedIndex(s, v, leaderRegion, match)
			want := committedIndexByAcks(s, cfg, leaderRegion, match)
			if got != want {
				t.Logf("%s leader=%s cfg=%+v match=%v: got %d, oracle %d", s.Name(), leaderRegion, cfg.Members, match, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// anyAck is a Strategy outside the package's own, as the quorum fixer's
// override is: CommittedIndex must still honour it.
type anyAck struct{ Majority }

func (anyAck) DataCommitSatisfied(_ wire.Config, _ wire.Region, acks map[wire.NodeID]bool) bool {
	return len(acks) >= 1
}

func TestCommittedIndexForeignStrategy(t *testing.T) {
	cfg := paperTopology()
	match := make([]uint64, len(cfg.Members))
	match[4], match[7] = 9, 12
	if got := CommittedIndex(anyAck{}, NewVoters(cfg), "region-0", match); got != 12 {
		t.Fatalf("committed = %d, want 12 (any single ack)", got)
	}
}

func TestCommittedIndexAllocatesNothing(t *testing.T) {
	cfg := paperTopology()
	v := NewVoters(cfg)
	match := make([]uint64, len(cfg.Members))
	for i := range match {
		match[i] = uint64(100 + i%5)
	}
	for _, s := range []Strategy{Majority{}, SingleRegionDynamic{}, StaticAnyRegion{}, Grid{}} {
		if n := testing.AllocsPerRun(100, func() { CommittedIndex(s, v, "region-0", match) }); n != 0 {
			t.Errorf("%s: %v allocs per CommittedIndex", s.Name(), n)
		}
	}
}
