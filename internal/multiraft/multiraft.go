// Package multiraft hosts many raft rings (shards) in one process, the
// way the paper's fleet runs MyRaft: each MySQL shard is an independent
// replicaset, but a node carries dozens of them, so per-shard costs —
// heartbeat timers, fsync schedules, purge scans, transport endpoints —
// must be shared per node, not multiplied per ring.
//
// The runtime stacks four mechanisms on the single-ring cluster package:
//
//   - one transport endpoint per node, multiplexed across shards by a
//     transport.Demux speaking the wire.ShardEnvelope frame;
//   - heartbeat coalescing in that demux: one physical message per
//     (node, peer) pair per interval carries every co-located shard
//     leader's heartbeat, collapsing O(shards × peers) messages into
//     O(peers);
//   - a shared-resource layer per node: one SyncGroup accounting for every
//     shard's log-writer fsync (each issued on its own ring's writer, so
//     rings' fsyncs overlap), and one retention scheduler driving every
//     shard's snapshot/purge cycle;
//   - a Router mapping keys to shards over reloadable hash-range tables,
//     and a leader balancer spreading shard leaders across up nodes.
package multiraft

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"myraft/internal/clock"
	"myraft/internal/cluster"
	"myraft/internal/discovery"
	"myraft/internal/metrics"
	"myraft/internal/raft"
	"myraft/internal/transport"
	"myraft/internal/wire"
)

// Options configures a multi-shard runtime.
type Options struct {
	// Shards is the number of raft rings hosted by the process set.
	Shards int
	// Specs is the per-shard member topology. Every shard gets the same
	// node set — the paper's deployment unit is a host carrying one
	// mysqld per shard — so node IDs here name processes, and each shard
	// ring stretches across all of them.
	Specs []cluster.MemberSpec
	// Name prefixes shard replicaset names in service discovery
	// (default "multiraft"; shard s registers as "<name>/shard-<s>").
	Name string
	// Dir is the root state directory (a subdirectory per shard). When
	// empty, New creates a temp directory and Close removes it; a
	// caller-supplied Dir is never removed.
	Dir string
	// Raft is the per-node config template, applied to every shard.
	Raft raft.Config
	// NetConfig configures the shared network.
	NetConfig transport.Config
	// Clock defaults to the real clock.
	Clock clock.Clock
	// Seed seeds network jitter for reproducible runs.
	Seed int64
	// Table is the initial routing table (default UniformTable(Shards)).
	Table Table
	// TraceSampleEvery is each shard cluster's write-path trace sampling
	// rate (see cluster.Options.TraceSampleEvery). A many-shard process
	// usually wants n > 1: the per-txn cost is small but exists, and the
	// histograms converge quickly even at 1-in-16.
	TraceSampleEvery int
	// OnRoleChange, when set, observes every role transition on every
	// shard (the chaos harness checks election safety per shard with it).
	OnRoleChange func(shard wire.ShardID, rc raft.RoleChange)
	// WrapLogStore, when set, wraps each member's log store before the
	// shared per-node SyncGroup does (fault injection, modeled device
	// latency). The sync group always stays outermost so it counts every
	// sync a shard's log writer asks for.
	WrapLogStore func(id wire.NodeID, store raft.LogStore) raft.LogStore
	// WrapTransport and WrapClock are cluster.Options' hooks of the same
	// names, applied to every shard's member on every node: the chaos
	// harness wraps each shard port in a transport.Fault and gives each
	// member a clock.Skewed.
	WrapTransport func(id wire.NodeID, t transport.Transport) transport.Transport
	WrapClock     func(id wire.NodeID, c clock.Clock) clock.Clock
}

// Runtime is a running multi-shard process set. It is the process
// runtime: cluster.Cluster is the per-ring building block underneath it,
// and a single-ring deployment is simply Shards: 1.
type Runtime struct {
	opts     Options
	ownsDir  bool
	net      *transport.Network
	registry *discovery.Registry
	clk      clock.Clock
	demuxes  map[wire.NodeID]*transport.Demux
	syncs    map[wire.NodeID]*SyncGroup
	router   *Router
	reg      *metrics.Registry
	nodeRegs map[wire.NodeID]*metrics.Registry

	mu     sync.RWMutex
	shards []*cluster.Cluster
	down   map[wire.NodeID]bool

	// gate tracks in-flight routed writes per routing-table version so a
	// split can drain every write admitted under a pre-fence table before
	// taking its copy snapshot (see split.go).
	gate writeGate

	// splitMu serializes topology changes (addShard/Split).
	splitMu sync.Mutex

	staleRejects atomic.Int64
	fenceWaits   atomic.Int64
	splits       atomic.Int64
}

// writeGate counts in-flight routed writes keyed by the table version
// they were admitted under. Writers increment before revalidating their
// route, so after a Reload every write still running under an older
// version is visible to drainBelow — the ordering that makes the split's
// fence sound.
type writeGate struct {
	mu       sync.Mutex
	cond     *sync.Cond
	inflight map[uint64]int
}

func (g *writeGate) enter(version uint64) func() {
	g.mu.Lock()
	if g.cond == nil {
		g.cond = sync.NewCond(&g.mu)
		g.inflight = make(map[uint64]int)
	}
	g.inflight[version]++
	g.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			g.mu.Lock()
			g.inflight[version]--
			if g.inflight[version] <= 0 {
				delete(g.inflight, version)
			}
			g.cond.Broadcast()
			g.mu.Unlock()
		})
	}
}

// drainBelow blocks until no write admitted under a table version older
// than the given one remains in flight. Writes admitted under the fenced
// table itself (or newer) keep flowing — only the moved subrange is
// fenced, and its writers can no longer be admitted at all.
func (g *writeGate) drainBelow(ctx context.Context, version uint64) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.cond == nil {
		return nil
	}
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			g.cond.Broadcast()
		case <-done:
		}
	}()
	for {
		older := 0
		for v, n := range g.inflight {
			if v < version {
				older += n
			}
		}
		if older == 0 {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		g.cond.Wait()
	}
}

// New builds and starts every shard ring. No leaders exist until
// Bootstrap (or election timeouts) elect them.
func New(opts Options) (*Runtime, error) {
	if opts.Shards <= 0 {
		return nil, fmt.Errorf("multiraft: Shards must be positive")
	}
	if len(opts.Specs) == 0 {
		return nil, fmt.Errorf("multiraft: no member specs")
	}
	if opts.Name == "" {
		opts.Name = "multiraft"
	}
	if opts.Clock == nil {
		opts.Clock = clock.Real()
	}
	if len(opts.Table.Ranges) == 0 {
		opts.Table = UniformTable(opts.Shards)
	}
	router, err := NewRouter(opts.Table, opts.Shards)
	if err != nil {
		return nil, err
	}
	ownsDir := opts.Dir == ""
	if ownsDir {
		dir, err := os.MkdirTemp("", "myraft-multiraft-")
		if err != nil {
			return nil, fmt.Errorf("multiraft: %w", err)
		}
		opts.Dir = dir
	}

	netCfg := opts.NetConfig
	if netCfg.Seed == 0 {
		netCfg.Seed = opts.Seed
	}
	rt := &Runtime{
		opts:     opts,
		ownsDir:  ownsDir,
		net:      transport.New(netCfg, opts.Clock),
		registry: discovery.NewRegistry(),
		clk:      opts.Clock,
		demuxes:  make(map[wire.NodeID]*transport.Demux),
		syncs:    make(map[wire.NodeID]*SyncGroup),
		router:   router,
		reg:      metrics.NewRegistry(),
		nodeRegs: make(map[wire.NodeID]*metrics.Registry),
		down:     make(map[wire.NodeID]bool),
	}

	// One endpoint + demux + fsync group per node, shared by every shard.
	hb := opts.Raft.HeartbeatInterval
	if hb == 0 {
		hb = 500 * time.Millisecond
	}
	for _, spec := range opts.Specs {
		if _, ok := rt.demuxes[spec.ID]; ok {
			rt.Close()
			return nil, fmt.Errorf("multiraft: duplicate member %s", spec.ID)
		}
		ep := rt.net.Register(spec.ID, spec.Region)
		rt.demuxes[spec.ID] = transport.NewDemux(ep, opts.Clock, transport.DemuxConfig{FlushInterval: hb})
		rt.syncs[spec.ID] = NewSyncGroup()
		rt.nodeRegs[spec.ID] = metrics.NewRegistry()
	}

	for s := 0; s < opts.Shards; s++ {
		c, err := rt.newShardCluster(wire.ShardID(s))
		if err != nil {
			rt.Close()
			return nil, fmt.Errorf("multiraft: shard %d: %w", s, err)
		}
		rt.shards = append(rt.shards, c)
	}
	rt.reg.Gauge("shards_hosted").Set(int64(opts.Shards))
	return rt, nil
}

// newShardCluster assembles one shard's ring over the shared per-node
// demuxes and fsync groups. Every node's port for the shard is created up
// front, before any member starts, so no early vote or heartbeat can be
// dropped as an unknown-shard leak.
func (rt *Runtime) newShardCluster(shard wire.ShardID) (*cluster.Cluster, error) {
	for _, d := range rt.demuxes {
		d.Shard(shard)
	}
	rcfg := rt.opts.Raft
	if rt.opts.OnRoleChange != nil {
		hook := rt.opts.OnRoleChange
		rcfg.OnRoleChange = func(rc raft.RoleChange) { hook(shard, rc) }
	}
	return cluster.New(cluster.Options{
		Name:     rt.ShardName(shard),
		Dir:      filepath.Join(rt.opts.Dir, fmt.Sprintf("shard-%d", shard)),
		Raft:     rcfg,
		Net:      rt.net,
		Registry: rt.registry,
		Clock:    rt.opts.Clock,
		Seed:     rt.opts.Seed,

		TraceSampleEvery: rt.opts.TraceSampleEvery,
		WrapTransport:    rt.opts.WrapTransport,
		WrapClock:        rt.opts.WrapClock,
		Transport: func(id wire.NodeID, _ wire.Region) transport.Transport {
			return rt.demuxes[id].Shard(shard)
		},
		WrapLogStore: func(id wire.NodeID, store raft.LogStore) raft.LogStore {
			if rt.opts.WrapLogStore != nil {
				store = rt.opts.WrapLogStore(id, store)
			}
			return rt.syncs[id].Wrap(store)
		},
	}, rt.opts.Specs)
}

// Name returns the runtime's name prefix.
func (rt *Runtime) Name() string { return rt.opts.Name }

// ShardName returns the discovery name of one shard's replicaset.
func (rt *Runtime) ShardName(shard wire.ShardID) string {
	return fmt.Sprintf("%s/shard-%d", rt.opts.Name, shard)
}

// Shards returns the number of hosted shards.
func (rt *Runtime) Shards() int {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return len(rt.shards)
}

// Shard returns one shard's cluster (nil for unknown shards).
func (rt *Runtime) Shard(id wire.ShardID) *cluster.Cluster {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	if int(id) >= len(rt.shards) {
		return nil
	}
	return rt.shards[id]
}

// shardList snapshots the shard slice under the lock; a split may append
// a new ring at any time.
func (rt *Runtime) shardList() []*cluster.Cluster {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return append([]*cluster.Cluster(nil), rt.shards...)
}

// Router returns the key→shard router.
func (rt *Runtime) Router() *Router { return rt.router }

// Net returns the shared network (fault injection, stats).
func (rt *Runtime) Net() *transport.Network { return rt.net }

// Registry returns the shared discovery registry.
func (rt *Runtime) Registry() *discovery.Registry { return rt.registry }

// Demux returns one node's shard demultiplexer (nil for unknown nodes).
func (rt *Runtime) Demux(id wire.NodeID) *transport.Demux { return rt.demuxes[id] }

// SyncGroup returns one node's fsync accounting group (nil for unknown
// nodes).
func (rt *Runtime) SyncGroup(id wire.NodeID) *SyncGroup { return rt.syncs[id] }

// Nodes returns the node IDs in spec order.
func (rt *Runtime) Nodes() []wire.NodeID {
	out := make([]wire.NodeID, 0, len(rt.opts.Specs))
	for _, s := range rt.opts.Specs {
		out = append(out, s.ID)
	}
	return out
}

// Bootstrap elects an initial leader for every shard, spreading them
// round-robin across the MySQL voter nodes, and waits until each shard
// has a published primary. Shards bootstrap concurrently — a 16-shard
// process must not pay 16 sequential election waits.
func (rt *Runtime) Bootstrap(ctx context.Context) error {
	var voters []wire.NodeID
	for _, s := range rt.opts.Specs {
		if s.Kind == cluster.KindMySQL && s.Voter {
			voters = append(voters, s.ID)
		}
	}
	if len(voters) == 0 {
		return fmt.Errorf("multiraft: no MySQL voters to bootstrap")
	}
	shards := rt.shardList()
	errs := make(chan error, len(shards))
	for s, c := range shards {
		go func(c *cluster.Cluster, at wire.NodeID) {
			errs <- c.Bootstrap(ctx, at)
		}(c, voters[s%len(voters)])
	}
	for range shards {
		if err := <-errs; err != nil {
			return err
		}
	}
	return nil
}

// ShardStatus is one shard's row in the /shards rollup.
type ShardStatus struct {
	Shard        wire.ShardID `json:"shard"`
	Name         string       `json:"name"`
	Leader       wire.NodeID  `json:"leader,omitempty"`
	Term         uint64       `json:"term"`
	CommitIndex  uint64       `json:"commit_index"`
	DurableIndex uint64       `json:"durable_index"`
	PurgeFloor   uint64       `json:"purge_floor"`
}

// ShardStatuses surveys every shard: its leader (empty while none is
// claiming), term, commit/durable progress and purge floor.
func (rt *Runtime) ShardStatuses() []ShardStatus {
	shards := rt.shardList()
	out := make([]ShardStatus, 0, len(shards))
	for s, c := range shards {
		st := ShardStatus{
			Shard:      wire.ShardID(s),
			Name:       rt.ShardName(wire.ShardID(s)),
			PurgeFloor: c.PurgeFloor(),
		}
		if leader := c.Leader(); leader != nil && leader.Node() != nil {
			ns := leader.Node().Status()
			st.Leader = ns.ID
			st.Term = ns.Term
			st.CommitIndex = ns.CommitIndex
			st.DurableIndex = ns.DurableIndex
		}
		out = append(out, st)
	}
	return out
}

// LeadersByNode groups shard leadership by hosting node. Leaderless
// shards are absent.
func (rt *Runtime) LeadersByNode() map[wire.NodeID][]wire.ShardID {
	out := make(map[wire.NodeID][]wire.ShardID)
	for _, st := range rt.ShardStatuses() {
		if st.Leader != "" {
			out[st.Leader] = append(out[st.Leader], st.Shard)
		}
	}
	return out
}

// Metrics refreshes and returns the runtime-scope instrument registry:
// shard count, routing-table generation, and the routed-write cutover
// counters (stale rejections, fence waits, completed splits). Per-node
// gauges live in NodeRegistries — the exporter renders them as one
// labeled family per metric, never a metric name per node (colons and
// node IDs are not legal in Prometheus metric names).
func (rt *Runtime) Metrics() *metrics.Registry {
	rt.reg.Gauge("shards_hosted").Set(int64(rt.Shards()))
	rt.reg.Gauge("router_table_version").Set(int64(rt.router.Version()))
	rt.reg.Gauge("router_stale_rejects").Set(rt.staleRejects.Load())
	rt.reg.Gauge("router_fence_waits").Set(rt.fenceWaits.Load())
	rt.reg.Gauge("shard_splits_total").Set(rt.splits.Load())
	return rt.reg
}

// NodeRegistry pairs one node with its shared-resource instrument
// registry (leaders held, heartbeat-coalescing traffic, demux drops,
// fsync counters). The admin exporter attaches a node label to
// each, so the families stay properly named across the fleet.
type NodeRegistry struct {
	ID  wire.NodeID
	Reg *metrics.Registry
}

// NodeRegistries refreshes and returns every node's registry in spec
// order.
func (rt *Runtime) NodeRegistries() []NodeRegistry {
	byNode := rt.LeadersByNode()
	out := make([]NodeRegistry, 0, len(rt.opts.Specs))
	for _, spec := range rt.opts.Specs {
		id := spec.ID
		reg := rt.nodeRegs[id]
		if reg == nil {
			continue
		}
		reg.Gauge("multiraft_leaders_held").Set(int64(len(byNode[id])))
		if d := rt.demuxes[id]; d != nil {
			st := d.Stats()
			reg.Publish(st)
			var flushes int64
			for _, n := range st.CoalescedFlushes {
				flushes += n
			}
			reg.Gauge("multiraft_hb_coalesced_flushes").Set(flushes)
		}
		if g := rt.syncs[id]; g != nil {
			reg.Publish(g.Stats())
		}
		out = append(out, NodeRegistry{ID: id, Reg: reg})
	}
	return out
}

// StaleRejects returns how many routed writes were rejected for holding a
// stale table version and re-routed.
func (rt *Runtime) StaleRejects() int64 { return rt.staleRejects.Load() }

// FenceWaits returns how many routed write attempts backed off on a
// fenced range during a split.
func (rt *Runtime) FenceWaits() int64 { return rt.fenceWaits.Load() }

// Crash takes a node down across every shard it hosts — one process
// death kills all co-located rings.
func (rt *Runtime) Crash(id wire.NodeID) error {
	for s, c := range rt.shardList() {
		if err := c.Crash(id); err != nil {
			return fmt.Errorf("multiraft: crash %s on shard %d: %w", id, s, err)
		}
	}
	rt.mu.Lock()
	rt.down[id] = true
	rt.mu.Unlock()
	return nil
}

// Restart brings a crashed node back on every shard.
func (rt *Runtime) Restart(id wire.NodeID) error {
	for s, c := range rt.shardList() {
		if err := c.Restart(id); err != nil {
			return fmt.Errorf("multiraft: restart %s on shard %d: %w", id, s, err)
		}
	}
	rt.mu.Lock()
	delete(rt.down, id)
	rt.mu.Unlock()
	return nil
}

// UpNodes returns the nodes not currently crashed, in spec order.
func (rt *Runtime) UpNodes() []wire.NodeID {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var out []wire.NodeID
	for _, s := range rt.opts.Specs {
		if !rt.down[s.ID] {
			out = append(out, s.ID)
		}
	}
	return out
}

// Close tears the whole process set down: every shard ring, then the
// shared demuxes and network, then the state directory if New made it.
func (rt *Runtime) Close() {
	for _, c := range rt.shardList() {
		c.Close()
	}
	for _, d := range rt.demuxes {
		d.Close()
	}
	rt.net.Close()
	if rt.ownsDir {
		// Best effort: Close has no error to report a failed removal through.
		_ = os.RemoveAll(rt.opts.Dir)
	}
}
