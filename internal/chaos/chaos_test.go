package chaos

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"myraft/internal/cluster"
	"myraft/internal/wire"
)

// -chaos.seed re-runs one seed: TestChaos runs exactly that seed, and
// every row of TestChaosSmoke runs with it instead of its pinned seeds.
// A failing run prints the command (Report.ReproCommand).
var seedFlag = flag.Int64("chaos.seed", -1, "run only this chaos seed (repro mode)")

// -chaos.seeds sizes the local campaign.
var seedsFlag = flag.Int("chaos.seeds", 20, "number of distinct seeds in the chaos campaign")

// -chaos.artifacts names a directory where failing seeds leave a repro
// bundle (repro command, violations, stats, op journal). CI uploads it.
var artifactsFlag = flag.String("chaos.artifacts", "", "directory for failing-seed repro artifacts")

// writeArtifact drops a failing run's full report where CI can pick it
// up: everything needed to reproduce and triage without rerunning.
func writeArtifact(t *testing.T, name string, rep *Report) {
	if *artifactsFlag == "" {
		return
	}
	if err := os.MkdirAll(*artifactsFlag, 0o755); err != nil {
		t.Logf("chaos: artifacts dir: %v", err)
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "repro: %s\n\nviolations (%d):\n", rep.ReproCommand(name), len(rep.Violations))
	for _, v := range rep.Violations {
		fmt.Fprintf(&b, "  %s\n", v)
	}
	fmt.Fprintf(&b, "\nstats:\n%s\n\nop journal (schedule):\n%s\n", rep.Stats, rep.Schedule)
	file := fmt.Sprintf("%s-seed-%d.txt", strings.NewReplacer("/", "-", "^", "", "$", "").Replace(name), rep.Seed)
	path := filepath.Join(*artifactsFlag, file)
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Logf("chaos: write artifact: %v", err)
		return
	}
	t.Logf("chaos artifact written: %s", path)
}

// runConfig plays one run and reports it: name is the anchored -run
// pattern of the test (and table row) cfg belongs to, a nil sched means
// the schedule generated from cfg.
func runConfig(t *testing.T, name string, cfg Config, sched Schedule) *Report {
	t.Helper()
	if testing.Verbose() {
		cfg.Logf = t.Logf
	}
	if sched == nil {
		sched = GenerateSchedule(cfg)
	}
	rep, err := Run(cfg, sched)
	if err != nil {
		t.Fatalf("seed %d: harness error: %v\nrepro: %s", cfg.Seed, err, (&Report{Seed: cfg.Seed}).ReproCommand(name))
	}
	if !rep.Passed() {
		t.Errorf("seed %d: %d invariant violation(s):", cfg.Seed, len(rep.Violations))
		for _, v := range rep.Violations {
			t.Errorf("  %s", v)
		}
		t.Errorf("stats:\n%s", rep.Stats)
		t.Errorf("schedule:\n%s", rep.Schedule)
		t.Errorf("repro: %s", rep.ReproCommand(name))
		writeArtifact(t, name, rep)
	} else if testing.Verbose() {
		t.Logf("seed %d passed:\n%s", cfg.Seed, rep.Stats)
	}
	if rep.Stats.Writes.Value() == 0 {
		t.Errorf("seed %d: workload never acknowledged a write (errs=%d)", cfg.Seed, rep.Stats.WriteErrors.Value())
	}
	return rep
}

func seedName(seed int64) string { return fmt.Sprintf("seed-%d", seed) }

// TestChaos is the randomized campaign: a pool of distinct seeds, each
// a full single-ring paper-topology life under its own fault schedule
// with every invariant checker armed. With -chaos.seed=N it runs exactly
// that seed instead — the deterministic reproduction path.
func TestChaos(t *testing.T) {
	const name = "^TestChaos$"
	if *seedFlag >= 0 {
		runConfig(t, name, Config{Seed: *seedFlag}, nil)
		return
	}
	if testing.Short() {
		t.Skip("chaos campaign skipped in -short mode (run TestChaosSmoke instead)")
	}
	for seed := int64(1); seed <= int64(*seedsFlag); seed++ {
		t.Run(seedName(seed), func(t *testing.T) {
			runConfig(t, name, Config{Seed: seed}, nil)
		})
	}
}

// threeVoters is the multi-shard node set: three MySQL voters in one
// region, every ring stretched across all of them.
var threeVoters = []cluster.MemberSpec{
	{ID: "n0", Region: "r1", Kind: cluster.KindMySQL, Voter: true},
	{ID: "n1", Region: "r1", Kind: cluster.KindMySQL, Voter: true},
	{ID: "n2", Region: "r1", Kind: cluster.KindMySQL, Voter: true},
}

// splitSchedule is split-under-load as a schedule: a follower pair is
// partitioned while the writers fill the keys, the network heals, ring 0
// splits online, and the node that bootstrapped as its primary crashes
// and recovers after the cutover.
var splitSchedule = Schedule{
	{At: 20 * time.Millisecond, Kind: ActPartition, Node: "n1", Peer: "n2"},
	{At: 420 * time.Millisecond, Kind: ActHealNet},
	{At: 430 * time.Millisecond, Kind: ActSplit, Shard: 0},
	{At: 700 * time.Millisecond, Kind: ActCrash, Node: "n0"},
	{At: 900 * time.Millisecond, Kind: ActRestart, Node: "n0"},
}

// smokeRuns is the fixed-seed table CI runs on every push: small enough
// to keep the gate fast, seeded identically everywhere so a CI failure
// reproduces locally with the printed command.
var smokeRuns = []struct {
	name  string
	seeds []int64
	cfg   Config   // Seed is filled per run
	sched Schedule // nil: generated from cfg
	check func(t *testing.T, rep *Report)
}{
	// Seeds 3 and 11 crash and partition mysql-0 with the commit pipeline
	// and the parallel appliers (both wide by default) mid-flight.
	{name: "paper", seeds: []int64{1, 7, 42, 3, 11}},
	// Seed 10 leaves a snapshot-installed member with an empty log, which
	// the serial-replay checker once tried to replay from index 1.
	{name: "4-shard", seeds: []int64{1, 7, 10}, cfg: Config{Shards: 4, Specs: threeVoters}, check: checkEveryShardJudged},
	{name: "split", seeds: []int64{1, 5}, cfg: Config{Specs: threeVoters}, sched: splitSchedule, check: checkSplitHappened},
}

// smokeName is the anchored -run pattern of one TestChaosSmoke row.
func smokeName(row string) string { return "^TestChaosSmoke$/^" + row + "$" }

// seedsFor returns the seeds a table row runs: its pinned ones, or the
// single one -chaos.seed names.
func seedsFor(pinned []int64) []int64 {
	if *seedFlag >= 0 {
		return []int64{*seedFlag}
	}
	return pinned
}

func TestChaosSmoke(t *testing.T) {
	for _, row := range smokeRuns {
		t.Run(row.name, func(t *testing.T) {
			for _, seed := range seedsFor(row.seeds) {
				t.Run(seedName(seed), func(t *testing.T) {
					cfg := row.cfg
					cfg.Seed = seed
					rep := runConfig(t, smokeName(row.name), cfg, row.sched)
					if row.check != nil {
						row.check(t, rep)
					}
				})
			}
		})
	}
}

// checkEveryShardJudged: the multi-shard run met the whole fault
// vocabulary, not only crashes and partitions, and every invariant was
// evaluated on every ring.
func checkEveryShardJudged(t *testing.T, rep *Report) {
	st := rep.Stats
	scheduled := make(map[ActionKind]bool)
	for _, a := range rep.Schedule {
		scheduled[a.Kind] = true
	}
	for _, f := range []struct {
		name    string
		kinds   []ActionKind
		applied int64
	}{
		{"fault rules", []ActionKind{ActDrop, ActDelay, ActDuplicate}, st.FaultRules.Value()},
		{"fsync stalls", []ActionKind{ActFsyncStall}, st.FsyncStalls.Value()},
		{"fsync fails", []ActionKind{ActFsyncFail}, st.FsyncFails.Value()},
		{"skew changes", []ActionKind{ActSkew}, st.SkewChanges.Value()},
	} {
		inSchedule := false
		for _, k := range f.kinds {
			inSchedule = inSchedule || scheduled[k]
		}
		// The pinned seeds schedule all four; a -chaos.seed rerun may not.
		// Each is applied to the wrapper of every ring on the node.
		if inSchedule && f.applied < int64(st.Shards) {
			t.Errorf("seed %d: %s applied %d times across %d shards, want at least one per shard", rep.Seed, f.name, f.applied, st.Shards)
		}
	}
	for _, inv := range invariants {
		want := st.Shards
		if inv == "isolation" {
			want = 1
		}
		if st.Checked[inv] != want {
			t.Errorf("seed %d: %q evaluated on %d shards, want %d", rep.Seed, inv, st.Checked[inv], want)
		}
	}
}

func checkSplitHappened(t *testing.T, rep *Report) {
	st := rep.Stats
	if st.Shards != 2 || st.TableVersion != 3 {
		t.Errorf("seed %d: %d shards at table version %d after the split, want 2 at 3 (fence then cutover)", rep.Seed, st.Shards, st.TableVersion)
	}
	if st.RowsMoved.Value() == 0 {
		t.Errorf("seed %d: the split moved no rows", rep.Seed)
	}
}

// A row written straight to a non-owner ring's primary, behind the
// router's back, is what the isolation checker exists to catch.
func TestIsolationCheckCatchesPlantedLeak(t *testing.T) {
	h, err := boot(Config{Seed: 1, Shards: 2, Specs: threeVoters})
	if err != nil {
		t.Fatal(err)
	}
	defer h.rt.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	key := h.keys[0]
	if _, err := h.client.Write(ctx, key, []byte("1")); err != nil {
		t.Fatal(err)
	}
	h.ack(key, 1)

	h.checkIsolation()
	if len(h.violations) != 0 {
		t.Fatalf("isolation violations before any leak: %v", h.violations)
	}
	other := wire.ShardID(1) - h.client.ShardFor(key)
	if _, err := h.rt.Shard(other).NewClient(0).Write(ctx, key, []byte("1")); err != nil {
		t.Fatal(err)
	}
	h.checkIsolation()
	if len(h.violations) != 1 || !strings.Contains(h.violations[0], "isolation") || !strings.Contains(h.violations[0], key) {
		t.Fatalf("planted leak of %s into shard %d: violations = %v, want one isolation violation naming the key", key, other, h.violations)
	}
}

// The repro command names the test and table row a Config came from,
// anchored so it selects nothing else, and -chaos.seed makes that row run
// the report's seed alone.
func TestReproCommandRerunsTheConfig(t *testing.T) {
	got := (&Report{Seed: 9}).ReproCommand(smokeName("4-shard"))
	want := "go test -run '^TestChaosSmoke$/^4-shard$' -chaos.seed=9 ./internal/chaos"
	if got != want {
		t.Fatalf("repro command = %q, want %q", got, want)
	}
	defer func(old int64) { *seedFlag = old }(*seedFlag)
	*seedFlag = 9
	if seeds := seedsFor([]int64{1, 7}); len(seeds) != 1 || seeds[0] != 9 {
		t.Fatalf("with -chaos.seed=9 a row pinned to seeds 1 and 7 runs %v, want [9]", seeds)
	}
}

// TestScheduleDeterminism pins the property the repro workflow depends
// on: the schedule is a pure function of the config.
func TestScheduleDeterminism(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		a := GenerateSchedule(Config{Seed: seed})
		b := GenerateSchedule(Config{Seed: seed})
		if len(a) != len(b) {
			t.Fatalf("seed %d: schedule lengths differ: %d vs %d", seed, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: action %d differs: %v vs %v", seed, i, a[i], b[i])
			}
		}
		if len(a) == 0 {
			t.Fatalf("seed %d: empty schedule", seed)
		}
	}
}

// TestScheduleRespectsMaxDown replays generated schedules symbolically
// and asserts the generator's own bookkeeping held: concurrently-down
// members never exceed MaxDown, restarts only target down members, and
// every fsync failure is followed by a crash and a restart of the same
// node (the sticky log-writer error makes the node useless until it
// recovers from disk).
func TestScheduleRespectsMaxDown(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		cfg := Config{Seed: seed}.withDefaults()
		sched := GenerateSchedule(cfg)
		down := map[string]bool{}
		pendingFail := map[string]int{} // fsync-failed node -> crash/restart debt
		for _, a := range sched {
			id := string(a.Node)
			switch a.Kind {
			case ActCrash:
				down[id] = true
				if len(down) > cfg.maxDown() {
					t.Fatalf("seed %d: %d members down after %v", seed, len(down), a)
				}
				if pendingFail[id] == 2 {
					pendingFail[id] = 1
				}
			case ActRestart:
				if !down[id] {
					t.Fatalf("seed %d: restart of up member: %v", seed, a)
				}
				delete(down, id)
				if pendingFail[id] == 1 {
					delete(pendingFail, id)
				}
			case ActFsyncFail:
				pendingFail[id] = 2 // owes a crash, then a restart
			}
		}
		if len(pendingFail) > 0 {
			t.Fatalf("seed %d: fsync-failed nodes never crash+restarted: %v", seed, pendingFail)
		}
	}
}
