// Package cluster assembles one MyRaft replicaset — a single raft ring
// of MySQL servers and logtailers spread across regions, wired together
// over the simulated network, with the plugin and Raft node stacked on
// each member and a service-discovery registry that promotion publishes
// into.
//
// Cluster is the per-ring building block, not a process runtime: a
// process always hosts rings inside a multiraft.Runtime (the classic
// standalone replicaset is a runtime with Shards: 1), which owns the
// shared transport demux, routing table, retention scheduling, and the
// admin API. Drop down to this package to operate one ring — members,
// promotion, checksums, per-ring reads — via Runtime.Shard.
package cluster

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"myraft/internal/clock"
	"myraft/internal/discovery"
	"myraft/internal/logtailer"
	"myraft/internal/metrics"
	"myraft/internal/mysql"
	"myraft/internal/plugin"
	"myraft/internal/raft"
	"myraft/internal/readpath"
	"myraft/internal/trace"
	"myraft/internal/transport"
	"myraft/internal/wire"
)

// Kind is the entity type of a member.
type Kind int

const (
	// KindMySQL is a full MySQL server (primary-capable when Voter).
	KindMySQL Kind = iota
	// KindLogtailer is a witness: log only, no storage engine.
	KindLogtailer
)

// MemberSpec describes one replicaset member.
type MemberSpec struct {
	ID     wire.NodeID
	Region wire.Region
	Kind   Kind
	// Voter: MySQL voters are failover replicas, non-voters are learners
	// (Table 1). Logtailers are always voters.
	Voter bool
}

// Options configures a replicaset.
type Options struct {
	// Name is the replicaset name in service discovery.
	Name string
	// Dir is the root directory for member state (a subdirectory per
	// member). When empty, New creates a temp directory and Close removes
	// it; a caller-supplied Dir is never removed.
	Dir string
	// Raft is the per-node Raft config template; ID/Region/StateDir are
	// filled per member.
	Raft raft.Config
	// Net is the shared network; one is created when nil.
	Net *transport.Network
	// NetConfig configures the created network when Net is nil.
	NetConfig transport.Config
	// Registry is the shared discovery registry; one is created when nil.
	Registry *discovery.Registry
	// Clock defaults to the real clock.
	Clock clock.Clock
	// Seed, when non-zero, seeds the network jitter RNG (unless NetConfig
	// already carries an explicit seed) so a whole replicaset run is
	// reproducible from one number. The chaos harness derives everything —
	// schedule, fault RNGs, network jitter — from this.
	Seed int64
	// WrapLogStore, when set, wraps each member's log store before it is
	// handed to raft.NewNode. Experiments use it to model storage-device
	// latency (logstore.Delayed); the chaos harness injects fsync stalls
	// and errors (logstore.Faulty). Called again on every restart of the
	// member, so wrappers with mutable fault state start each life fresh.
	WrapLogStore func(id wire.NodeID, s raft.LogStore) raft.LogStore
	// Transport, when set, supplies each member's transport instead of
	// registering a fresh endpoint on the shared network. The multi-shard
	// runtime (internal/multiraft) uses it to hand every shard's members
	// ports of one demultiplexed endpoint per node — calling Register per
	// shard would replace that endpoint and orphan the demux. Called again
	// on every restart of the member; WrapTransport still applies on top.
	Transport func(id wire.NodeID, region wire.Region) transport.Transport
	// WrapTransport, when set, wraps each member's network endpoint before
	// it is handed to raft.NewNode. The chaos harness uses it to inject
	// message drops, delays, duplication and asymmetric partitions
	// (transport.Fault). Called again on every restart of the member.
	WrapTransport func(id wire.NodeID, t transport.Transport) transport.Transport
	// WrapClock, when set, derives each member's node clock from the
	// cluster clock. The chaos harness uses it to give members individually
	// skewed clocks (clock.Skewed) while the network keeps real time.
	WrapClock func(id wire.NodeID, c clock.Clock) clock.Clock
	// TraceSampleEvery sets write-path trace sampling for every member: 0
	// samples every transaction (the per-stage histograms are capped, so
	// always-on tracing stays bounded), n > 1 samples every nth, and a
	// negative value disables tracing entirely.
	TraceSampleEvery int
}

// Member is one running replicaset member.
type Member struct {
	Spec MemberSpec

	dir    string
	server *mysql.Server        // nil for logtailers
	tailer *logtailer.Logtailer // nil for MySQL members
	plug   *plugin.Plugin       // nil for logtailers
	node   *raft.Node
	down   bool

	// reg and tracer are created once per member and survive crash/restart,
	// so latency history and slow-op journals span the member's whole
	// lifetime rather than one process incarnation.
	reg    *metrics.Registry
	tracer *trace.Tracer
}

// Server returns the member's MySQL server (nil for logtailers).
func (m *Member) Server() *mysql.Server { return m.server }

// Node returns the member's Raft node (nil while crashed).
func (m *Member) Node() *raft.Node { return m.node }

// Plugin returns the member's mysql_raft_repl plugin (nil for
// logtailers).
func (m *Member) Plugin() *plugin.Plugin { return m.plug }

// Tailer returns the member's logtailer (nil for MySQL members).
func (m *Member) Tailer() *logtailer.Logtailer { return m.tailer }

// IsDown reports whether the member is currently crashed.
func (m *Member) IsDown() bool { return m.down }

// Metrics returns the member's instrument registry. It is created at first
// start and survives crash/restart.
func (m *Member) Metrics() *metrics.Registry { return m.reg }

// Tracer returns the member's write-path tracer (nil when tracing is
// disabled via Options.TraceSampleEvery < 0).
func (m *Member) Tracer() *trace.Tracer { return m.tracer }

// Cluster is a running replicaset.
type Cluster struct {
	opts     Options
	specs    []MemberSpec
	boot     wire.Config
	net      *transport.Network
	registry *discovery.Registry
	clk      clock.Clock
	ownsNet  bool
	ownsDir  bool

	// mu guards the members map values' mutable fields (server/node/down)
	// against concurrent Crash/Restart and reader access.
	mu      sync.RWMutex
	members map[wire.NodeID]*Member

	// purgeFloor is the last cluster-wide purge floor driven by the purge
	// coordinator (retention.go): the first log index every member is asked
	// to retain.
	purgeFloor atomic.Uint64

	// readMetrics is the shared read-path observability sink (readpath.go).
	readMetrics *readpath.Metrics
}

// New builds and starts every member of the replicaset. No leader exists
// until Bootstrap (or an election timeout) elects one.
func New(opts Options, specs []MemberSpec) (*Cluster, error) {
	ownsDir := opts.Dir == ""
	if ownsDir {
		dir, err := os.MkdirTemp("", "myraft-cluster-")
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		opts.Dir = dir
	}
	if opts.Name == "" {
		opts.Name = "replicaset"
	}
	if opts.Clock == nil {
		opts.Clock = clock.Real()
	}
	c := &Cluster{
		opts:        opts,
		specs:       specs,
		net:         opts.Net,
		registry:    opts.Registry,
		clk:         opts.Clock,
		ownsDir:     ownsDir,
		members:     make(map[wire.NodeID]*Member),
		readMetrics: readpath.NewMetrics(),
	}
	if c.net == nil {
		netCfg := opts.NetConfig
		if netCfg.Seed == 0 {
			netCfg.Seed = opts.Seed
		}
		c.net = transport.New(netCfg, opts.Clock)
		c.ownsNet = true
	}
	if c.registry == nil {
		c.registry = discovery.NewRegistry()
	}
	c.boot = BootConfig(specs)
	for _, spec := range specs {
		m := &Member{Spec: spec, dir: filepath.Join(opts.Dir, string(spec.ID))}
		c.members[spec.ID] = m
		if err := c.startMember(m); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// BootConfig derives the Raft membership from member specs.
func BootConfig(specs []MemberSpec) wire.Config {
	var cfg wire.Config
	for _, s := range specs {
		cfg.Members = append(cfg.Members, wire.Member{
			ID:      s.ID,
			Region:  s.Region,
			Voter:   s.Voter || s.Kind == KindLogtailer,
			Witness: s.Kind == KindLogtailer,
		})
	}
	return cfg
}

// startMember builds the full stack for one member: server (or tailer),
// plugin, raft node, network endpoint.
func (c *Cluster) startMember(m *Member) error {
	var ep transport.Transport
	if c.opts.Transport != nil {
		ep = c.opts.Transport(m.Spec.ID, m.Spec.Region)
	} else {
		ep = c.net.Register(m.Spec.ID, m.Spec.Region)
	}
	// Observability state is member-lifetime, not process-lifetime: keep
	// histories and the slow-op journal across crash/restart cycles.
	if m.reg == nil {
		m.reg = metrics.NewRegistry()
		if c.opts.TraceSampleEvery >= 0 {
			m.tracer = trace.New(m.reg)
			if c.opts.TraceSampleEvery > 1 {
				m.tracer.SetSampleEvery(uint64(c.opts.TraceSampleEvery))
			}
		}
	}
	rcfg := c.opts.Raft
	rcfg.ID = m.Spec.ID
	rcfg.Region = m.Spec.Region
	rcfg.StateDir = filepath.Join(m.dir, "raft")
	rcfg.Tracer = m.tracer
	if m.Spec.Kind == KindMySQL && rcfg.ElectionTimeoutBias == 0 {
		// Let logtailers campaign first on failover (§4.1: the witness
		// holds the longest log and wins cleanly, then transfers to a
		// MySQL voter); MySQL members wait one extra beat.
		hb := rcfg.HeartbeatInterval
		if hb == 0 {
			hb = 500 * time.Millisecond
		}
		rcfg.ElectionTimeoutBias = hb
	}

	var store raft.LogStore
	var cb raft.Callbacks
	switch m.Spec.Kind {
	case KindMySQL:
		srv, err := mysql.NewServer(mysql.Options{
			ID:     m.Spec.ID,
			Dir:    m.dir,
			Tracer: m.tracer,
		})
		if err != nil {
			return err
		}
		plug := plugin.New(srv, c.opts.Name, c.registry)
		m.server = srv
		m.plug = plug
		store, cb = plug, plug
		// Snapshot catch-up: the plugin checkpoints the engine when this
		// member leads, and installs received checkpoints when it lags.
		rcfg.SnapshotProvider = plug
		rcfg.SnapshotSink = plug
	case KindLogtailer:
		lt, err := logtailer.New(m.Spec.ID, m.dir)
		if err != nil {
			return err
		}
		m.tailer = lt
		store, cb = lt.LogStore(), lt
		// A witness has no engine to checkpoint, so it can only be a
		// snapshot target: installing resets its log at the anchor.
		rcfg.SnapshotSink = lt
	default:
		return fmt.Errorf("cluster: unknown member kind %d", m.Spec.Kind)
	}

	if c.opts.WrapLogStore != nil {
		store = c.opts.WrapLogStore(m.Spec.ID, store)
	}
	var tr transport.Transport = ep
	if c.opts.WrapTransport != nil {
		tr = c.opts.WrapTransport(m.Spec.ID, ep)
	}
	nodeClk := c.clk
	if c.opts.WrapClock != nil {
		nodeClk = c.opts.WrapClock(m.Spec.ID, c.clk)
	}
	node, err := raft.NewNode(rcfg, store, cb, tr, nodeClk)
	if err != nil {
		return err
	}
	if m.plug != nil {
		m.plug.AttachNode(node)
	}
	if m.tailer != nil {
		m.tailer.AttachNode(node)
	}
	if err := node.Start(c.boot); err != nil {
		return err
	}
	m.node = node
	m.down = false
	return nil
}

// Member returns the member with the given ID. Member getters reflect
// the state at call time; during concurrent Crash/Restart use the
// Cluster-level accessors instead.
func (c *Cluster) Member(id wire.NodeID) *Member {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.members[id]
}

// Members returns all members.
func (c *Cluster) Members() []*Member {
	out := make([]*Member, 0, len(c.members))
	for _, s := range c.specs {
		out = append(out, c.members[s.ID])
	}
	return out
}

// MySQLStack atomically snapshots a MySQL member's live stack — its Raft
// node and server — under the cluster lock, so callers racing with
// Crash/Restart (the chaos harness's invariant samplers) never observe a
// half-torn member. ok is false while the member is down, unknown, or
// not a MySQL server.
func (c *Cluster) MySQLStack(id wire.NodeID) (*raft.Node, *mysql.Server, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m := c.members[id]
	if m == nil || m.down || m.node == nil || m.server == nil {
		return nil, nil, false
	}
	return m.node, m.server, true
}

// DownMembers returns the IDs of currently-crashed members, snapshotted
// under the cluster lock.
func (c *Cluster) DownMembers() []wire.NodeID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []wire.NodeID
	for _, s := range c.specs {
		if m := c.members[s.ID]; m != nil && m.down {
			out = append(out, s.ID)
		}
	}
	return out
}

// Net returns the shared network (fault injection, stats).
func (c *Cluster) Net() *transport.Network { return c.net }

// Registry returns the discovery registry.
func (c *Cluster) Registry() *discovery.Registry { return c.registry }

// Name returns the replicaset name.
func (c *Cluster) Name() string { return c.opts.Name }

// Bootstrap elects the given MySQL member as the initial leader and waits
// until it has completed promotion (writes enabled, discovery published).
func (c *Cluster) Bootstrap(ctx context.Context, id wire.NodeID) error {
	m := c.members[id]
	if m == nil || m.server == nil {
		return fmt.Errorf("cluster: %s is not a MySQL member", id)
	}
	m.node.CampaignNow()
	return c.WaitForPrimary(ctx, id)
}

// WaitForPrimary blocks until the given member is the published primary
// with writes enabled.
func (c *Cluster) WaitForPrimary(ctx context.Context, id wire.NodeID) error {
	for {
		c.mu.RLock()
		m := c.members[id]
		ready := m != nil && m.node != nil && m.server != nil && !m.down
		var node *raft.Node
		var srv *mysql.Server
		if ready {
			node, srv = m.node, m.server
		}
		c.mu.RUnlock()
		if ready && node.Status().Role == raft.RoleLeader && !srv.IsReadOnly() {
			if pub, ok := c.registry.Primary(c.opts.Name); ok && pub == id {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("cluster: waiting for %s to become primary: %w", id, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// AnyPrimary blocks until some MySQL member is the published primary and
// returns it.
func (c *Cluster) AnyPrimary(ctx context.Context) (*Member, error) {
	for {
		if id, ok := c.registry.Primary(c.opts.Name); ok {
			c.mu.RLock()
			m := c.members[id]
			ok := m != nil && m.server != nil && !m.down && !m.server.IsReadOnly()
			c.mu.RUnlock()
			if ok {
				return m, nil
			}
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("cluster: waiting for a primary: %w", ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// Leader returns the member currently reporting itself Raft leader, or
// nil. When several members claim leadership (a deposed leader that has
// not yet heard of its successor's term), the claimant with the highest
// term wins — the lower-term claim is definitively stale.
func (c *Cluster) Leader() *Member {
	c.mu.RLock()
	candidates := make([]*Member, 0, len(c.members))
	nodes := make([]*raft.Node, 0, len(c.members))
	for _, m := range c.members {
		if m.down || m.node == nil {
			continue
		}
		candidates = append(candidates, m)
		nodes = append(nodes, m.node)
	}
	c.mu.RUnlock()
	var best *Member
	var bestTerm uint64
	for i, n := range nodes {
		if st := n.Status(); st.Role == raft.RoleLeader && (best == nil || st.Term > bestTerm) {
			best = candidates[i]
			bestTerm = st.Term
		}
	}
	return best
}

// primaryServer resolves the published primary's server under the lock.
func (c *Cluster) primaryServer() (*mysql.Server, wire.NodeID, bool) {
	id, ok := c.registry.Primary(c.opts.Name)
	if !ok {
		return nil, "", false
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	m := c.members[id]
	if m == nil || m.server == nil || m.down {
		return nil, "", false
	}
	return m.server, id, true
}

// Crash simulates a hard crash of a member: the process dies (torn
// buffers, dropped memtable) and the host drops off the network.
func (c *Cluster) Crash(id wire.NodeID) error {
	c.mu.Lock()
	m := c.members[id]
	if m == nil {
		c.mu.Unlock()
		return fmt.Errorf("cluster: unknown member %s", id)
	}
	if m.down {
		c.mu.Unlock()
		return nil
	}
	node, server, tailer := m.node, m.server, m.tailer
	m.node = nil
	m.server = nil
	m.plug = nil
	m.tailer = nil
	m.down = true
	c.mu.Unlock()

	c.net.SetNodeDown(id, true)
	node.Stop()
	if server != nil {
		server.Crash()
	}
	if tailer != nil {
		tailer.Crash()
	}
	return nil
}

// Restart brings a crashed member back: state is recovered from disk
// (engine WAL replay, torn log tail truncation, persisted Raft term) and
// the member rejoins the ring as a follower (§A.2).
func (c *Cluster) Restart(id wire.NodeID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.members[id]
	if m == nil {
		return fmt.Errorf("cluster: unknown member %s", id)
	}
	if !m.down {
		return nil
	}
	c.net.SetNodeDown(id, false)
	return c.startMember(m)
}

// AddMember proposes the new member through Raft (§2.2), waits for the
// config entry to commit, and boots the member's process so it joins the
// ring and catches up from the leader.
func (c *Cluster) AddMember(ctx context.Context, spec MemberSpec) error {
	leader := c.Leader()
	if leader == nil || leader.Node() == nil {
		return fmt.Errorf("cluster: no leader")
	}
	op, err := leader.Node().AddMember(wire.Member{
		ID:      spec.ID,
		Region:  spec.Region,
		Voter:   spec.Voter || spec.Kind == KindLogtailer,
		Witness: spec.Kind == KindLogtailer,
	})
	if err != nil {
		return err
	}
	if err := leader.Node().WaitCommitted(ctx, op.Index); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.members[spec.ID]; ok {
		return fmt.Errorf("cluster: member %s already running", spec.ID)
	}
	m := &Member{Spec: spec, dir: filepath.Join(c.opts.Dir, string(spec.ID))}
	c.members[spec.ID] = m
	c.specs = append(c.specs, spec)
	return c.startMember(m)
}

// RemoveMember proposes removal through Raft, waits for commit, and shuts
// the member's process down.
func (c *Cluster) RemoveMember(ctx context.Context, id wire.NodeID) error {
	leader := c.Leader()
	if leader == nil || leader.Node() == nil {
		return fmt.Errorf("cluster: no leader")
	}
	op, err := leader.Node().RemoveMember(id)
	if err != nil {
		return err
	}
	if err := leader.Node().WaitCommitted(ctx, op.Index); err != nil {
		return err
	}
	c.mu.Lock()
	m := c.members[id]
	if m == nil {
		c.mu.Unlock()
		return nil
	}
	node, server, tailer := m.node, m.server, m.tailer
	m.node, m.server, m.plug, m.tailer = nil, nil, nil, nil
	m.down = true
	delete(c.members, id)
	for i, s := range c.specs {
		if s.ID == id {
			c.specs = append(c.specs[:i], c.specs[i+1:]...)
			break
		}
	}
	c.mu.Unlock()
	if node != nil {
		node.Stop()
	}
	if server != nil {
		server.Close()
	}
	if tailer != nil {
		tailer.Close()
	}
	return nil
}

// TransferLeadership gracefully moves leadership to target (§4.3 mock
// election included).
func (c *Cluster) TransferLeadership(target wire.NodeID) error {
	leader := c.Leader()
	if leader == nil {
		return fmt.Errorf("cluster: no leader")
	}
	return leader.node.TransferLeadership(target)
}

// EngineChecksums returns per-member storage engine checksums (MySQL
// members only), the §5.1 correctness check.
func (c *Cluster) EngineChecksums() map[wire.NodeID]uint32 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[wire.NodeID]uint32)
	for id, m := range c.members {
		if m.server != nil && !m.down {
			out[id] = m.server.Checksum()
		}
	}
	return out
}

// LogCommonStart returns the lowest index at which every live member's
// log can be compared: the maximum across members of the first index each
// one still retains (anchor+1 for a member whose log was reset by a
// snapshot install, since nothing below the anchor exists there). Under
// the bounded-log lifecycle, log-equality invariants must start here —
// comparing from index 1 would mix purged and retained prefixes.
func (c *Cluster) LogCommonStart() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	from := uint64(1)
	for _, m := range c.members {
		if m.down {
			continue
		}
		var first, anchor uint64
		switch {
		case m.server != nil:
			first = m.server.Log().FirstIndex()
			anchor = m.server.Log().Anchor().Index
		case m.tailer != nil:
			first = m.tailer.Log().FirstIndex()
			anchor = m.tailer.Log().Anchor().Index
		default:
			continue
		}
		if first == 0 {
			// Empty log: entries begin just above the anchor (index 1 when
			// the member has never installed a snapshot).
			first = anchor + 1
		}
		if first > from {
			from = first
		}
	}
	return from
}

// LogChecksums returns per-member replicated-log checksums starting at
// from (the log-equality invariant of §A.1). All members, including
// logtailers, participate.
func (c *Cluster) LogChecksums(from uint64) (map[wire.NodeID]uint32, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[wire.NodeID]uint32)
	for id, m := range c.members {
		if m.down {
			continue
		}
		var sum uint32
		var err error
		switch {
		case m.server != nil:
			sum, err = m.server.Log().Checksum(from)
		case m.tailer != nil:
			sum, err = m.tailer.Log().Checksum(from)
		default:
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("cluster: checksum %s: %w", id, err)
		}
		out[id] = sum
	}
	return out, nil
}

// Close shuts every member down and, if the cluster owns them, the
// network and the state directory.
func (c *Cluster) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range c.members {
		if m.node != nil {
			m.node.Stop()
		}
		if m.server != nil {
			m.server.Close()
		}
		if m.tailer != nil {
			m.tailer.Close()
		}
	}
	if c.ownsNet {
		c.net.Close()
	}
	if c.ownsDir {
		// Best effort: Close has no error to report a failed removal through.
		_ = os.RemoveAll(c.opts.Dir)
	}
}

// PaperTopology builds the §6.1 evaluation topology: a primary-capable
// MySQL with two logtailers in the primary region, nFollowers follower
// regions each with a MySQL voter and two logtailers, and nLearners
// learner MySQLs spread over the follower regions.
func PaperTopology(nFollowers, nLearners int) []MemberSpec {
	var specs []MemberSpec
	addRegion := func(r int) {
		region := wire.Region(fmt.Sprintf("region-%d", r))
		specs = append(specs,
			MemberSpec{ID: wire.NodeID(fmt.Sprintf("mysql-%d", r)), Region: region, Kind: KindMySQL, Voter: true},
			MemberSpec{ID: wire.NodeID(fmt.Sprintf("lt-%d-0", r)), Region: region, Kind: KindLogtailer},
			MemberSpec{ID: wire.NodeID(fmt.Sprintf("lt-%d-1", r)), Region: region, Kind: KindLogtailer},
		)
	}
	for r := 0; r <= nFollowers; r++ {
		addRegion(r)
	}
	for l := 0; l < nLearners; l++ {
		region := wire.Region(fmt.Sprintf("region-%d", 1+l%max(nFollowers, 1)))
		specs = append(specs, MemberSpec{
			ID:     wire.NodeID(fmt.Sprintf("learner-%d", l)),
			Region: region,
			Kind:   KindMySQL,
			Voter:  false,
		})
	}
	return specs
}
