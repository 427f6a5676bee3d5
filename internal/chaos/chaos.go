// Package chaos is the deterministic nemesis harness for the MyRaft
// runtime: it boots a multiraft.Runtime (one ring is Shards: 1), plays a
// schedule of node-level faults against it while routed writers and
// readers run, heals everything, and then machine-checks every ring
// against the seven safety invariants the paper argues for — election
// safety, log matching, durability of acknowledged writes, GTID-set
// monotonicity, read safety of the linearizable/lease read path, purge
// catch-up, and parallel-apply equivalence — plus cross-shard isolation:
// no key is readable through a ring that does not own it, and the shared
// demux never delivered a frame to a shard a node does not host.
//
// Everything randomized — the generated schedule, each member's
// transport fault RNG, the network's jitter — is derived from
// Config.Seed, so a failing run is reproduced by re-running the same
// seed. The schedule itself is a pure function of the Config
// (GenerateSchedule); only message-level outcomes (which packets a drop
// rule eats) depend on goroutine timing.
//
// Faults are node-level, because a process hosts every shard's member on
// that node: a crash takes all its rings down, a partition cuts every
// shard's traffic on the link, and a message, fsync or clock fault is
// applied to the wrapper of every (node, shard) member the node hosts.
// They are injected through composition points the production stack
// already exposes: transport.Fault wraps each shard port
// (drop/delay/duplicate), logstore.Faulty wraps each log store (fsync
// stalls and errors), clock.Skewed wraps each member's clock (lease-path
// skew), the network applies symmetric and asymmetric partitions, and an
// online shard split is one more scheduled action. Nothing in the
// consensus core knows it is being tested.
package chaos

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"myraft/internal/clock"
	"myraft/internal/cluster"
	"myraft/internal/gtid"
	"myraft/internal/logstore"
	"myraft/internal/multiraft"
	"myraft/internal/raft"
	"myraft/internal/readpath"
	"myraft/internal/transport"
	"myraft/internal/wire"
)

// The workload and timing of a run are fixed: no test, CI job or flag
// ever set them, so they are constants rather than knobs.
const (
	// faultWindow is how long the schedule plays.
	faultWindow = 1200 * time.Millisecond
	// writerCount writers each own a disjoint slice of keyCount keys and
	// write strictly increasing sequence numbers to them; readerCount
	// readers alternate linearizable and lease reads against those keys.
	writerCount = 4
	readerCount = 2
	keyCount    = 48
	// maxClockSkew is the raft-config skew bound; injected offsets stay
	// within ±maxClockSkew/2.
	maxClockSkew = 4 * time.Millisecond
	// convergeTimeout bounds each post-heal wait (convergence, settling).
	convergeTimeout = 30 * time.Second
	opTimeout       = 500 * time.Millisecond
)

// Config parameterizes one chaos run. The zero value (plus a Seed) is
// the single-ring paper topology.
type Config struct {
	// Seed derives every random choice of the run.
	Seed int64
	// Shards is the number of rings the runtime starts with (default 1).
	Shards int
	// Specs is the node set every ring stretches across (default
	// cluster.PaperTopology(1, 0): two regions, two MySQL voters, four
	// logtailers).
	Specs []cluster.MemberSpec
	// Logf, when set, receives a trace of applied actions and checker
	// progress (testing.T.Logf fits).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Specs == nil {
		c.Specs = cluster.PaperTopology(1, 0)
	}
	return c
}

// maxDown caps concurrently-crashed nodes at what keeps a majority of
// voters alive on every ring (logtailers always vote).
func (c Config) maxDown() int {
	voters := 0
	for _, s := range c.withDefaults().Specs {
		if s.Voter || s.Kind == cluster.KindLogtailer {
			voters++
		}
	}
	return (voters - 1) / 2
}

func (c Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Report is the outcome of one chaos run.
type Report struct {
	Seed       int64
	Schedule   Schedule
	Stats      *Stats
	Violations []string
}

// Passed reports whether every invariant held.
func (r *Report) Passed() bool { return len(r.Violations) == 0 }

// ReproCommand returns the one-liner that re-runs this report's Config:
// test names the Go test (and table row) the Config belongs to, and
// -chaos.seed pins the seed it runs with.
func (r *Report) ReproCommand(test string) string {
	return fmt.Sprintf("go test -run '%s' -chaos.seed=%d ./internal/chaos", test, r.Seed)
}

// wrappers tracks one kind of fault wrapper. live holds the instances of
// each node's current life, one per shard the node hosts (a crash empties
// the list, the restart and any later split refill it); all keeps every
// instance ever made for the final heal and the stats rollup.
type wrappers[T any] struct {
	live map[wire.NodeID][]T
	all  []T
}

func newWrappers[T any]() wrappers[T] { return wrappers[T]{live: make(map[wire.NodeID][]T)} }

func (w *wrappers[T]) add(id wire.NodeID, v T) {
	w.live[id] = append(w.live[id], v)
	w.all = append(w.all, v)
}

// member names one ring's member on one node.
type member struct {
	shard wire.ShardID
	node  wire.NodeID
}

// gtidState is the per-member, per-crash-epoch applied-GTID tracker of
// the monotonicity checker.
type gtidState struct {
	epoch       int
	prevApplied uint64
	applied     *gtid.Set
}

// harness carries one run's mutable state: the fault wrappers, crash
// epochs to invalidate samples torn by a concurrent crash, leader claims
// per shard and term, and the per-key acknowledged-write floors the
// read-safety and durability checkers compare against.
type harness struct {
	cfg    Config
	stats  *Stats
	rt     *multiraft.Runtime
	client *multiraft.Client
	keys   []string

	mu         sync.Mutex
	faults     wrappers[*transport.Fault]
	stores     wrappers[*logstore.Faulty]
	skews      wrappers[*clock.Skewed]
	epochs     map[wire.NodeID]int
	leaders    map[wire.ShardID]map[uint64]map[wire.NodeID]bool
	acked      map[string]uint64
	violations []string
	// readJudged is the set of shards on which at least one read was
	// judged against a non-zero acknowledged floor.
	readJudged map[wire.ShardID]bool
	// postPurgeRestarts records, per member, the ring's purge floor in
	// force when the member was last restarted — the population the
	// purge catch-up invariant judges at the end of the run.
	postPurgeRestarts map[member]uint64

	// GTID checker state, touched only by the sampler goroutine and the
	// final checker (which runs after the sampler has stopped).
	gtids       map[member]*gtidState
	appliedEver map[wire.ShardID]*gtid.Set
}

func (h *harness) violatef(format string, args ...any) {
	h.mu.Lock()
	h.violations = append(h.violations, fmt.Sprintf(format, args...))
	h.mu.Unlock()
}

// checked records that one invariant was evaluated on one more shard.
func (h *harness) checked(invariant string) {
	h.mu.Lock()
	h.stats.Checked[invariant]++
	h.mu.Unlock()
}

// seedFor derives a per-node RNG seed from the master seed, stable
// across restarts so a node's fault stream depends only on (seed, id).
func (h *harness) seedFor(id wire.NodeID) int64 {
	f := fnv.New64a()
	f.Write([]byte(id))
	return h.cfg.Seed ^ int64(f.Sum64())
}

// The wrap hooks run for every shard's member on every (re)start, so
// fault state starts each member life fresh.

func (h *harness) wrapTransport(id wire.NodeID, t transport.Transport) transport.Transport {
	f := transport.NewFault(t, h.seedFor(id), nil)
	h.mu.Lock()
	h.faults.add(id, f)
	h.mu.Unlock()
	return f
}

func (h *harness) wrapLogStore(id wire.NodeID, s raft.LogStore) raft.LogStore {
	f := logstore.NewFaulty(s)
	h.mu.Lock()
	h.stores.add(id, f)
	h.mu.Unlock()
	return f
}

func (h *harness) wrapClock(id wire.NodeID, c clock.Clock) clock.Clock {
	sk := clock.NewSkewed(c)
	h.mu.Lock()
	h.skews.add(id, sk)
	h.mu.Unlock()
	return sk
}

// liveOf snapshots the wrappers of one node's current life.
func liveOf[T any](h *harness, w *wrappers[T], id wire.NodeID) []T {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]T(nil), w.live[id]...)
}

func (h *harness) epoch(id wire.NodeID) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.epochs[id]
}

func (h *harness) bumpEpoch(id wire.NodeID) {
	h.mu.Lock()
	h.epochs[id]++
	h.mu.Unlock()
}

// onRoleChange runs synchronously on each node's event loop: record and
// get out.
func (h *harness) onRoleChange(shard wire.ShardID, rc raft.RoleChange) {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch rc.Role {
	case raft.RoleCandidate:
		h.stats.Elections.Inc()
	case raft.RoleLeader:
		terms := h.leaders[shard]
		if terms == nil {
			terms = make(map[uint64]map[wire.NodeID]bool)
			h.leaders[shard] = terms
		}
		if terms[rc.Term] == nil {
			terms[rc.Term] = make(map[wire.NodeID]bool)
			h.stats.LeaderTerms.Inc()
		}
		terms[rc.Term][rc.ID] = true
	}
}

func (h *harness) ackFloor(key string) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.acked[key]
}

func (h *harness) ack(key string, seq uint64) {
	h.mu.Lock()
	if seq > h.acked[key] {
		h.acked[key] = seq
	}
	h.mu.Unlock()
}

// boot builds the runtime with every fault wrapper installed, elects a
// leader on every ring, and picks the key population: the same number of
// keys for each starting shard, so every ring sees writes.
func boot(cfg Config) (*harness, error) {
	cfg = cfg.withDefaults()
	h := &harness{
		cfg:               cfg,
		stats:             newStats(),
		faults:            newWrappers[*transport.Fault](),
		stores:            newWrappers[*logstore.Faulty](),
		skews:             newWrappers[*clock.Skewed](),
		epochs:            make(map[wire.NodeID]int),
		leaders:           make(map[wire.ShardID]map[uint64]map[wire.NodeID]bool),
		acked:             make(map[string]uint64),
		readJudged:        make(map[wire.ShardID]bool),
		postPurgeRestarts: make(map[member]uint64),
		gtids:             make(map[member]*gtidState),
		appliedEver:       make(map[wire.ShardID]*gtid.Set),
	}
	rt, err := multiraft.New(multiraft.Options{
		Shards: cfg.Shards,
		Specs:  cfg.Specs,
		Name:   fmt.Sprintf("chaos-%d", cfg.Seed),
		Raft: raft.Config{
			HeartbeatInterval: 10 * time.Millisecond,
			MaxClockSkew:      maxClockSkew,
		},
		NetConfig: transport.Config{
			IntraRegion: 200 * time.Microsecond,
			CrossRegion: 2 * time.Millisecond,
		},
		Seed:          cfg.Seed,
		OnRoleChange:  h.onRoleChange,
		WrapTransport: h.wrapTransport,
		WrapLogStore:  h.wrapLogStore,
		WrapClock:     h.wrapClock,
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: build runtime: %w", err)
	}
	h.rt = rt
	h.client = rt.NewClient(0)

	bctx, bcancel := context.WithTimeout(context.Background(), 15*time.Second)
	err = rt.Bootstrap(bctx)
	bcancel()
	if err != nil {
		rt.Close()
		return nil, fmt.Errorf("chaos: bootstrap: %w", err)
	}

	perShard := max(1, keyCount/cfg.Shards)
	taken := make(map[wire.ShardID]int)
	for i := 0; len(h.keys) < perShard*cfg.Shards; i++ {
		k := fmt.Sprintf("chaos-k%d", i)
		if s := rt.Router().ShardFor(k); taken[s] < perShard {
			taken[s]++
			h.keys = append(h.keys, k)
		}
	}
	return h, nil
}

// Run executes one full chaos run: boot the runtime, start the workload,
// play sched, heal and recover everything, and check every ring. The
// returned error reports harness-level failures (boot trouble); safety
// verdicts are in Report.Violations.
func Run(cfg Config, sched Schedule) (*Report, error) {
	h, err := boot(cfg)
	if err != nil {
		return nil, err
	}
	defer h.rt.Close()

	// Workload + samplers run for the whole fault window.
	wctx, wcancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < writerCount; i++ {
		wg.Add(1)
		go func(i int) { defer wg.Done(); h.writer(wctx, i) }(i)
	}
	for i := 0; i < readerCount; i++ {
		wg.Add(1)
		go func(i int) { defer wg.Done(); h.reader(wctx, i) }(i)
	}
	wg.Add(1)
	go func() { defer wg.Done(); h.gtidSampler(wctx) }()

	h.execute(sched)

	wcancel()
	wg.Wait()

	// Heal every fault and bring every node back before judging the
	// convergence invariants.
	h.healAll()
	for _, id := range h.rt.Shard(0).DownMembers() {
		if err := h.restart(id); err != nil {
			return nil, fmt.Errorf("chaos: final restart of %s: %w", id, err)
		}
	}

	h.checkAll()
	h.finalizeStats()

	h.mu.Lock()
	violations := append([]string(nil), h.violations...)
	h.mu.Unlock()
	return &Report{Seed: h.cfg.Seed, Schedule: sched, Stats: h.stats, Violations: violations}, nil
}

// execute plays the schedule against the wall clock.
func (h *harness) execute(sched Schedule) {
	start := time.Now()
	for _, a := range sched {
		if d := a.At - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		h.cfg.logf("chaos: apply %s", a)
		h.apply(a)
	}
	if d := faultWindow - time.Since(start); d > 0 {
		time.Sleep(d)
	}
}

func (h *harness) apply(a Action) {
	switch a.Kind {
	case ActCrash:
		// Epoch bumps on both sides of the crash: a GTID sample that
		// overlaps either boundary sees a changed epoch and discards
		// itself rather than attributing pre-crash state to the new life.
		h.bumpEpoch(a.Node)
		if err := h.rt.Crash(a.Node); err == nil {
			h.stats.Crashes.Inc()
		}
		h.bumpEpoch(a.Node)
		h.mu.Lock()
		delete(h.faults.live, a.Node)
		delete(h.stores.live, a.Node)
		delete(h.skews.live, a.Node)
		h.mu.Unlock()
	case ActRestart:
		if err := h.restart(a.Node); err != nil {
			h.violatef("harness: restart %s: %v", a.Node, err)
		}
	case ActPartition:
		h.rt.Net().Partition(a.Node, a.Peer)
		h.stats.Partitions.Inc()
	case ActPartitionOneWay:
		h.rt.Net().PartitionOneWay(a.Node, a.Peer)
		h.stats.Partitions.Inc()
	case ActHealNet:
		h.rt.Net().HealAll()
		h.stats.NetHeals.Inc()
	case ActDrop, ActDelay, ActDuplicate:
		for _, f := range liveOf(h, &h.faults, a.Node) {
			switch a.Kind {
			case ActDrop:
				f.SetDrop(a.P)
			case ActDelay:
				f.SetDelay(a.P, a.Dur)
			case ActDuplicate:
				f.SetDuplicate(a.P)
			}
			h.stats.FaultRules.Inc()
		}
	case ActHealFaults:
		for _, f := range liveOf(h, &h.faults, a.Node) {
			f.Heal()
		}
	case ActFsyncStall:
		for _, s := range liveOf(h, &h.stores, a.Node) {
			s.StallSyncs(a.Dur)
			h.stats.FsyncStalls.Inc()
		}
	case ActFsyncHeal:
		for _, s := range liveOf(h, &h.stores, a.Node) {
			s.Heal()
		}
	case ActFsyncFail:
		for _, s := range liveOf(h, &h.stores, a.Node) {
			s.FailSyncs(fmt.Errorf("chaos: injected fsync error"))
			h.stats.FsyncFails.Inc()
		}
	case ActSkew:
		for _, sk := range liveOf(h, &h.skews, a.Node) {
			sk.SetOffset(a.Dur)
			h.stats.SkewChanges.Inc()
		}
	case ActPurge:
		// One purge-coordinator round per ring; rounds without a leader or
		// with nothing purgeable are legitimate no-ops under faults.
		for s := 0; s < h.rt.Shards(); s++ {
			if floor, err := h.rt.Shard(wire.ShardID(s)).PurgeOnce(a.N); err == nil && floor > 0 {
				h.stats.Purges.Inc()
				h.cfg.logf("chaos: shard %d purge floor -> %d (budget %d)", s, floor, a.N)
			}
		}
	case ActSplit:
		ctx, cancel := context.WithTimeout(context.Background(), convergeTimeout)
		rep, err := h.rt.Split(ctx, a.Shard)
		cancel()
		if err != nil {
			h.violatef("harness: split shard %d: %v", a.Shard, err)
			return
		}
		h.stats.Splits.Inc()
		h.stats.RowsMoved.Add(int64(rep.RowsMoved))
		h.cfg.logf("chaos: moved %d rows to shard %d, table v%d", rep.RowsMoved, rep.NewShard, rep.TableVersion)
	}
}

// restart recovers a node on every ring, and — for each ring that has
// already purged history — marks the member for the purge catch-up
// check: its on-disk log may now start below the ring's floor, so
// convergence must come through snapshot install rather than log replay.
func (h *harness) restart(id wire.NodeID) error {
	h.bumpEpoch(id)
	if err := h.rt.Restart(id); err != nil {
		return err
	}
	h.stats.Restarts.Inc()
	for s := 0; s < h.rt.Shards(); s++ {
		if floor := h.rt.Shard(wire.ShardID(s)).PurgeFloor(); floor > 0 {
			h.mu.Lock()
			h.postPurgeRestarts[member{wire.ShardID(s), id}] = floor
			h.mu.Unlock()
		}
	}
	return nil
}

// healAll returns the run to a clean substrate: no partitions, no
// transport rules (held messages flushed), no log-store faults, clocks
// back in sync.
func (h *harness) healAll() {
	h.rt.Net().HealAll()
	h.mu.Lock()
	faults := append([]*transport.Fault(nil), h.faults.all...)
	stores := append([]*logstore.Faulty(nil), h.stores.all...)
	skews := append([]*clock.Skewed(nil), h.skews.all...)
	h.mu.Unlock()
	for _, f := range faults {
		f.Heal()
	}
	for _, s := range stores {
		s.Heal()
	}
	for _, sk := range skews {
		sk.SetOffset(0)
	}
}

// writer owns keys[i], keys[i+writerCount], … and writes one strictly
// increasing sequence to them through the routed client. The sequence
// advances even on failed attempts, so a write that times out at the
// client but commits later can never alias a newer acknowledged value —
// the read-safety floor stays sound. Attempts are single-shot: a fenced
// range or a table reload mid-split counts as a write error.
func (h *harness) writer(ctx context.Context, i int) {
	var seq uint64
	for k := i; ctx.Err() == nil; k += writerCount {
		key := h.keys[k%len(h.keys)]
		seq++
		wctx, cancel := context.WithTimeout(ctx, opTimeout)
		res, err := h.client.TryWrite(wctx, key, []byte(strconv.FormatUint(seq, 10)))
		cancel()
		if err == nil {
			h.ack(key, seq)
			h.stats.Writes.Inc()
			h.stats.WriteLatency.Observe(res.Latency)
		} else {
			h.stats.WriteErrors.Inc()
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(time.Millisecond):
		}
	}
}

// reader checks read safety online: capture the key's acknowledged
// floor before issuing the read; a linearizable (or lease — leases fall
// back rather than going stale) read that completes must return a
// sequence at or above that floor.
func (h *harness) reader(ctx context.Context, i int) {
	lin := i%2 == 0
	rng := rand.New(rand.NewSource(h.cfg.Seed + 7919*int64(i+1)))
	for ctx.Err() == nil {
		key := h.keys[rng.Intn(len(h.keys))]
		floor := h.ackFloor(key)
		rctx, cancel := context.WithTimeout(ctx, opTimeout)
		var res readpath.Result
		var err error
		if lin {
			res, err = h.client.ReadLinearizable(rctx, key)
		} else {
			res, err = h.client.ReadLease(rctx, key)
		}
		cancel()
		if err == nil {
			h.observeRead(res)
			h.checkRead("read safety", key, floor, res)
			if floor > 0 {
				h.mu.Lock()
				h.readJudged[h.client.ShardFor(key)] = true
				h.mu.Unlock()
			}
		} else {
			h.stats.ReadErrors.Inc()
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// observeRead counts what the read path served at each level while
// faults were active.
func (h *harness) observeRead(res readpath.Result) {
	h.stats.Reads.Inc()
	switch res.Level {
	case readpath.LevelLinearizable:
		h.stats.LinReads.Inc()
	case readpath.LevelLease:
		h.stats.LeaseReads.Inc()
		if res.FellBack {
			h.stats.FallbackObs.Inc()
		}
	}
}

func (h *harness) checkRead(what, key string, floor uint64, res readpath.Result) {
	if floor == 0 {
		return
	}
	if !res.Found {
		h.violatef("%s: %s read of %s found nothing after seq %d was acked", what, res.Level, key, floor)
		return
	}
	seq, err := strconv.ParseUint(string(res.Value), 10, 64)
	if err != nil {
		h.violatef("%s: %s read of %s returned garbage %q: %v", what, res.Level, key, res.Value, err)
		return
	}
	if seq < floor {
		h.violatef("%s: %s read of %s returned seq %d older than acked seq %d", what, res.Level, key, seq, floor)
	}
}

// gtidSampler drives the GTID monotonicity checker: within one crash
// epoch, a member's executed GTID set (its binlog contents) must always
// contain every GTID its applier has applied — applied implies
// committed, and committed entries are exactly what log truncation must
// never remove. Samples that overlap a crash are discarded via the
// epoch counters; across a crash the per-member state resets, because a
// torn tail may legally drop locally-unsynced copies of entries.
func (h *harness) gtidSampler(ctx context.Context) {
	tick := time.NewTicker(25 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		// Re-read the shard count every round: a split adds a ring.
		for s := 0; s < h.rt.Shards(); s++ {
			for _, spec := range h.cfg.Specs {
				if spec.Kind == cluster.KindMySQL {
					h.sampleGTID(member{wire.ShardID(s), spec.ID})
				}
			}
		}
	}
}

func (h *harness) sampleGTID(m member) {
	e0 := h.epoch(m.node)
	_, srv, ok := h.rt.Shard(m.shard).MySQLStack(m.node)
	if !ok {
		return
	}
	st := h.gtids[m]
	if st == nil || st.epoch != e0 {
		st = &gtidState{epoch: e0, applied: gtid.NewSet()}
		h.gtids[m] = st
	}
	if h.appliedEver[m.shard] == nil {
		h.appliedEver[m.shard] = gtid.NewSet()
	}
	applied := srv.ApplyStatus().Position
	fresh := gtid.NewSet()
	lg := srv.Log()
	for idx := st.prevApplied + 1; idx <= applied; idx++ {
		ent, err := lg.Entry(idx)
		if err != nil {
			return // crashed or rotated under us; resample later
		}
		if ent.HasGTID {
			fresh.Add(ent.GTID)
		}
	}
	executed := srv.GTIDExecuted()
	if h.epoch(m.node) != e0 {
		return // crash landed mid-sample; state is torn, discard
	}
	st.prevApplied = applied
	st.applied.Union(fresh)
	h.appliedEver[m.shard].Union(fresh)
	if !executed.ContainsSet(st.applied) {
		h.violatef("shard %d: gtid monotonicity: %s executed set %v stopped containing its applied set %v with no crash in between",
			m.shard, m.node, executed, st.applied)
	}
}

// finalizeStats folds every transport fault wrapper's message counters
// into the run stats, plus the routing counters and the
// snapshot-transfer counters of each member's final life (restarts reset
// a node's counters, so this is a lower bound on transfer activity —
// enough to show the snapshot path actually ran under purge faults).
func (h *harness) finalizeStats() {
	h.mu.Lock()
	faults := append([]*transport.Fault(nil), h.faults.all...)
	h.stats.Checked["read safety"] = len(h.readJudged)
	h.mu.Unlock()
	for _, f := range faults {
		st := f.Stats()
		h.stats.MsgDropped.Add(st.Dropped)
		h.stats.MsgDelayed.Add(st.Delayed)
		h.stats.MsgDuplicated.Add(st.Duplicated)
		h.stats.DropsPerLife.Observe(st.Dropped)
	}
	h.stats.Shards = h.rt.Shards()
	h.stats.TableVersion = h.rt.Router().Version()
	h.stats.StaleRejects = h.rt.StaleRejects()
	h.stats.FenceWaits = h.rt.FenceWaits()
	for s := 0; s < h.rt.Shards(); s++ {
		c := h.rt.Shard(wire.ShardID(s))
		for _, m := range c.Members() {
			if n := m.Node(); n != nil {
				ss := n.SnapshotStats()
				h.stats.SnapshotInstalls.Add(ss.Installs)
				h.stats.SnapshotChunks.Add(ss.ChunksSent)
			}
		}
		// Fold every member tracer's stage summaries into one per-stage
		// rollup, so a failing seed's report shows where write-path time
		// went under the faults (a fat fsync p99 next to fsync-stall counts
		// tells the story at a glance).
		for _, mr := range c.MemberRegistries() {
			if mr.Tracer == nil {
				continue
			}
			for st, sum := range mr.Tracer.StageSummaries() {
				agg := h.stats.WritePath[st.String()]
				agg.Count += sum.Count
				agg.P99 = max(agg.P99, sum.P99)
				agg.Max = max(agg.Max, sum.Max)
				h.stats.WritePath[st.String()] = agg
			}
		}
	}
}
