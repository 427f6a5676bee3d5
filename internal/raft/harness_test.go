package raft

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"myraft/internal/clock"
	"myraft/internal/opid"
	"myraft/internal/transport"
	"myraft/internal/wire"
)

// memLog is an in-memory LogStore for consensus-layer tests (the real
// deployment uses the plugin's binlog-backed store).
type memLog struct {
	mu      sync.Mutex
	entries []*wire.LogEntry // entries[i] has index i+1
}

func (l *memLog) Append(e *wire.LogEntry) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.entries) > 0 && e.OpID.Index != l.entries[len(l.entries)-1].OpID.Index+1 {
		return fmt.Errorf("memlog: gap append %d after %d", e.OpID.Index, l.entries[len(l.entries)-1].OpID.Index)
	}
	if len(l.entries) == 0 && e.OpID.Index != 1 {
		return fmt.Errorf("memlog: first entry at %d", e.OpID.Index)
	}
	cp := *e
	cp.Payload = append([]byte(nil), e.Payload...)
	l.entries = append(l.entries, &cp)
	return nil
}

func (l *memLog) Entry(index uint64) (*wire.LogEntry, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if index == 0 || index > uint64(len(l.entries)) {
		return nil, fmt.Errorf("memlog: no entry %d", index)
	}
	return l.entries[index-1], nil
}

func (l *memLog) LastOpID() opid.OpID {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.entries) == 0 {
		return opid.Zero
	}
	return l.entries[len(l.entries)-1].OpID
}

func (l *memLog) FirstIndex() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.entries) == 0 {
		return 0
	}
	return 1
}

func (l *memLog) TruncateAfter(index uint64) ([]*wire.LogEntry, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if index >= uint64(len(l.entries)) {
		return nil, nil
	}
	removed := append([]*wire.LogEntry(nil), l.entries[index:]...)
	l.entries = l.entries[:index]
	return removed, nil
}

func (l *memLog) Sync() error { return nil }

func (l *memLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// recordingCallbacks captures callback invocations for assertions.
type recordingCallbacks struct {
	mu        sync.Mutex
	promotes  []PromoteInfo
	demotes   []uint64
	commitIdx uint64
	configs   []wire.Config
}

func (r *recordingCallbacks) OnPromote(info PromoteInfo) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.promotes = append(r.promotes, info)
}

func (r *recordingCallbacks) OnDemote(term uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.demotes = append(r.demotes, term)
}

func (r *recordingCallbacks) OnCommitAdvance(idx uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if idx > r.commitIdx {
		r.commitIdx = idx
	}
}

func (r *recordingCallbacks) OnMembershipChange(cfg wire.Config) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.configs = append(r.configs, cfg)
}

func (r *recordingCallbacks) promoteCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.promotes)
}

func (r *recordingCallbacks) demoteCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.demotes)
}

// cluster is a test harness around a set of nodes on one network.
type cluster struct {
	t       *testing.T
	net     *transport.Network
	cfg     wire.Config
	nodes   map[wire.NodeID]*Node
	logs    map[wire.NodeID]*memLog
	cbs     map[wire.NodeID]*recordingCallbacks
	nodeCfg func(id wire.NodeID, region wire.Region) Config
	// clk and port are what each node runs on: nil means the real clock
	// and the network endpoint itself (newClusterOn sets them).
	clk  clock.Clock
	port func(*transport.Endpoint) Transport
}

const testHeartbeat = 10 * time.Millisecond

func defaultNodeCfg(id wire.NodeID, region wire.Region) Config {
	return Config{
		ID:                id,
		Region:            region,
		HeartbeatInterval: testHeartbeat,
	}
}

// newCluster builds and starts nodes for every member of cfg.
func newCluster(t *testing.T, cfg wire.Config, mk func(id wire.NodeID, region wire.Region) Config) *cluster {
	t.Helper()
	return newClusterOn(t, cfg, mk, nil, nil)
}

// newClusterOn is newCluster with every node on clk (nil: the real
// clock) and talking through port(endpoint) (nil: the endpoint itself).
func newClusterOn(t *testing.T, cfg wire.Config, mk func(id wire.NodeID, region wire.Region) Config,
	clk clock.Clock, port func(*transport.Endpoint) Transport) *cluster {
	t.Helper()
	if mk == nil {
		mk = defaultNodeCfg
	}
	c := &cluster{
		t: t,
		net: transport.New(transport.Config{
			IntraRegion: 200 * time.Microsecond,
			CrossRegion: 2 * time.Millisecond,
		}, nil),
		cfg:     cfg,
		nodes:   make(map[wire.NodeID]*Node),
		logs:    make(map[wire.NodeID]*memLog),
		cbs:     make(map[wire.NodeID]*recordingCallbacks),
		nodeCfg: mk,
		clk:     clk,
		port:    port,
	}
	for _, m := range cfg.Members {
		c.startNode(m.ID, m.Region)
	}
	t.Cleanup(c.close)
	return c
}

func (c *cluster) startNode(id wire.NodeID, region wire.Region) *Node {
	c.t.Helper()
	ep := c.net.Register(id, region)
	var tr Transport = ep
	if c.port != nil {
		tr = c.port(ep)
	}
	log := &memLog{}
	cb := &recordingCallbacks{}
	n, err := NewNode(c.nodeCfg(id, region), log, cb, tr, c.clk)
	if err != nil {
		c.t.Fatal(err)
	}
	if err := n.Start(c.cfg); err != nil {
		c.t.Fatal(err)
	}
	c.nodes[id] = n
	c.logs[id] = log
	c.cbs[id] = cb
	return n
}

func (c *cluster) close() {
	for _, n := range c.nodes {
		n.Stop()
	}
	c.net.Close()
}

// elect forces an election on id and waits for it to become leader.
func (c *cluster) elect(id wire.NodeID) *Node {
	c.t.Helper()
	n := c.nodes[id]
	n.CampaignNow()
	c.waitLeader(id)
	return n
}

// waitLeader waits until id reports itself leader.
func (c *cluster) waitLeader(id wire.NodeID) {
	c.t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if c.nodes[id].Status().Role == RoleLeader {
			return
		}
		time.Sleep(time.Millisecond)
	}
	c.t.Fatalf("%s never became leader", id)
}

// anyLeader waits for some node to become leader and returns it.
func (c *cluster) anyLeader() *Node {
	c.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, n := range c.nodes {
			if n.Status().Role == RoleLeader {
				return n
			}
		}
		time.Sleep(time.Millisecond)
	}
	c.t.Fatal("no leader emerged")
	return nil
}

// waitCondition polls until cond returns true.
func (c *cluster) waitCondition(what string, cond func() bool) {
	c.t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	c.t.Fatalf("timed out waiting for %s", what)
}

// flatConfig builds a single-region all-MySQL config of n voters.
func flatConfig(n int) wire.Config {
	var cfg wire.Config
	for i := 0; i < n; i++ {
		cfg.Members = append(cfg.Members, wire.Member{
			ID:     wire.NodeID(fmt.Sprintf("n%d", i)),
			Region: "r1",
			Voter:  true,
		})
	}
	return cfg
}

// paperConfig builds the §6.1 topology: nRegions regions, each with one
// MySQL voter and two logtailer witnesses; region-0 additionally hosts
// nothing special (the leader is elected there by tests).
func paperConfig(nRegions int) wire.Config {
	var cfg wire.Config
	for r := 0; r < nRegions; r++ {
		region := wire.Region(fmt.Sprintf("region-%d", r))
		cfg.Members = append(cfg.Members,
			wire.Member{ID: wire.NodeID(fmt.Sprintf("mysql-%d", r)), Region: region, Voter: true},
			wire.Member{ID: wire.NodeID(fmt.Sprintf("lt-%d-0", r)), Region: region, Voter: true, Witness: true},
			wire.Member{ID: wire.NodeID(fmt.Sprintf("lt-%d-1", r)), Region: region, Voter: true, Witness: true},
		)
	}
	return cfg
}
