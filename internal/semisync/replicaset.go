package semisync

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"myraft/internal/binlog"
	"myraft/internal/discovery"
	"myraft/internal/logstore"
	"myraft/internal/mysql"
	"myraft/internal/transport"
	"myraft/internal/wire"
)

// Options configures a baseline replicaset.
type Options struct {
	// Name is the replicaset name in service discovery.
	Name string
	// Dir is the root state directory.
	Dir string
	// Net is the shared network; created when nil.
	Net *transport.Network
	// NetConfig configures the created network.
	NetConfig transport.Config
	// Registry is the shared discovery registry; created when nil.
	Registry *discovery.Registry
}

// Replicaset is a running baseline (prior setup) replicaset. Unlike the
// MyRaft cluster, it has no self-managed leadership: the automation
// package drives promotion, failover and membership from outside.
type Replicaset struct {
	opts     Options
	net      *transport.Network
	registry *discovery.Registry
	ownsNet  bool
	ownsDir  bool // New created opts.Dir itself, so Close removes it

	mu      sync.Mutex
	nodes   map[wire.NodeID]*Node
	specs   []NodeSpec
	primary wire.NodeID
	era     uint64
}

// New builds the replicaset members; none is primary until Bootstrap.
func New(opts Options, specs []NodeSpec) (*Replicaset, error) {
	ownsDir := opts.Dir == ""
	if ownsDir {
		dir, err := os.MkdirTemp("", "semisync-")
		if err != nil {
			return nil, err
		}
		opts.Dir = dir
	}
	if opts.Name == "" {
		opts.Name = "replicaset"
	}
	rs := &Replicaset{
		opts:     opts,
		ownsDir:  ownsDir,
		net:      opts.Net,
		registry: opts.Registry,
		nodes:    make(map[wire.NodeID]*Node),
		specs:    specs,
		era:      1,
	}
	if rs.net == nil {
		rs.net = transport.New(opts.NetConfig, nil)
		rs.ownsNet = true
	}
	if rs.registry == nil {
		rs.registry = discovery.NewRegistry()
	}
	for _, spec := range specs {
		if err := rs.startNode(spec); err != nil {
			rs.Close()
			return nil, err
		}
	}
	return rs, nil
}

// startNode builds and boots one member as a replica/acker.
func (rs *Replicaset) startNode(spec NodeSpec) error {
	n := &Node{ID: spec.ID, Region: spec.Region, Kind: spec.Kind, rs: rs}
	n.ep = rs.net.Register(spec.ID, spec.Region)
	dir := filepath.Join(rs.opts.Dir, string(spec.ID))
	switch spec.Kind {
	case KindMySQL:
		srv, err := mysql.NewServer(mysql.Options{ID: spec.ID, Dir: dir})
		if err != nil {
			return err
		}
		n.server = srv
	case KindLogtailer:
		log, err := binlog.Open(binlog.Options{
			Dir:     filepath.Join(dir, "logs"),
			Persona: binlog.PersonaRelay,
		})
		if err != nil {
			return err
		}
		n.ltLog = &logtailerLog{store: logstore.BinlogStore{Log: log}}
	default:
		return fmt.Errorf("semisync: unknown kind %d", spec.Kind)
	}
	n.replica = newReplicaRepl(n)
	if n.server != nil {
		n.server.AttachReplicator(n.replica)
	}
	n.stopRun = make(chan struct{})
	go n.run(n.stopRun)
	rs.mu.Lock()
	rs.nodes[spec.ID] = n
	rs.mu.Unlock()
	return nil
}

// ackersFor lists the semi-sync ackers of a primary: the logtailers in
// its region.
func (rs *Replicaset) ackersFor(primary wire.NodeID) []wire.NodeID {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	p := rs.nodes[primary]
	if p == nil {
		return nil
	}
	var out []wire.NodeID
	for id, n := range rs.nodes {
		if n.Kind == KindLogtailer && n.Region == p.Region {
			out = append(out, id)
		}
	}
	return out
}

// Node returns a member by ID.
func (rs *Replicaset) Node(id wire.NodeID) *Node {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.nodes[id]
}

// Nodes returns all members in spec order.
func (rs *Replicaset) Nodes() []*Node {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := make([]*Node, 0, len(rs.specs))
	for _, s := range rs.specs {
		if n := rs.nodes[s.ID]; n != nil {
			out = append(out, n)
		}
	}
	return out
}

// Net returns the network.
func (rs *Replicaset) Net() *transport.Network { return rs.net }

// ReleaseNetwork transfers network ownership to the caller: Close will no
// longer shut it down. The enable-raft rollout uses this to hand the
// fabric over to the Raft cluster replacing this replicaset.
func (rs *Replicaset) ReleaseNetwork() *transport.Network {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.ownsNet = false
	return rs.net
}

// Registry returns the discovery registry.
func (rs *Replicaset) Registry() *discovery.Registry { return rs.registry }

// Name returns the replicaset name.
func (rs *Replicaset) Name() string { return rs.opts.Name }

// Primary returns the current primary's ID ("" when none).
func (rs *Replicaset) Primary() wire.NodeID {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.primary
}

// MakePrimary configures id as the primary: its server leaves replica
// mode, dump threads to every other member start, and discovery is
// updated. Automation calls this during bootstrap, promotion and
// failover. The previous primary (if alive) must have been demoted first.
func (rs *Replicaset) MakePrimary(ctx context.Context, id wire.NodeID) error {
	rs.mu.Lock()
	n := rs.nodes[id]
	if n == nil || n.server == nil {
		rs.mu.Unlock()
		return fmt.Errorf("semisync: %s is not a MySQL member", id)
	}
	if n.down {
		rs.mu.Unlock()
		return fmt.Errorf("semisync: %s is down", id)
	}
	rs.era++
	era := rs.era
	rs.primary = id
	peers := make([]wire.NodeID, 0, len(rs.nodes))
	for pid, pn := range rs.nodes {
		if pid != id && !pn.down {
			peers = append(peers, pid)
		}
	}
	rs.mu.Unlock()

	// MySQL-side promotion: catch the applier up to everything received,
	// rewire logs, then switch the replicator to primary mode.
	target := n.replica.CommitIndex()
	if err := n.server.PromoteToPrimary(ctx, target); err != nil {
		return err
	}
	primary := newPrimaryRepl(n, era)
	n.mu.Lock()
	n.primary = primary
	n.replica = nil
	n.mu.Unlock()
	n.server.AttachReplicator(primary)
	for _, peer := range peers {
		primary.addPeer(peer)
	}
	n.server.EnableWrites()
	rs.registry.PublishPrimary(rs.opts.Name, id)
	return nil
}

// Demote returns a primary to replica mode (graceful promotion path).
func (rs *Replicaset) Demote(id wire.NodeID) error {
	rs.mu.Lock()
	n := rs.nodes[id]
	if n == nil || n.server == nil {
		rs.mu.Unlock()
		return fmt.Errorf("semisync: %s is not a MySQL member", id)
	}
	if rs.primary == id {
		rs.primary = ""
	}
	rs.mu.Unlock()

	n.mu.Lock()
	primary := n.primary
	n.mu.Unlock()
	if primary != nil {
		primary.stopAll()
	}
	replica := newReplicaRepl(n)
	n.mu.Lock()
	n.primary = nil
	n.replica = replica
	n.mu.Unlock()
	n.server.AttachReplicator(replica)
	return n.server.DemoteToReplica()
}

// Crash simulates a member crash.
func (rs *Replicaset) Crash(id wire.NodeID) error {
	rs.mu.Lock()
	n := rs.nodes[id]
	if n == nil {
		rs.mu.Unlock()
		return fmt.Errorf("semisync: unknown member %s", id)
	}
	// Note: rs.primary deliberately keeps pointing at a crashed primary —
	// that is what the external automation's health checks must detect.
	rs.mu.Unlock()

	n.mu.Lock()
	if n.down {
		n.mu.Unlock()
		return nil
	}
	n.down = true
	primary := n.primary
	stop := n.stopRun
	n.mu.Unlock()

	rs.net.SetNodeDown(id, true)
	close(stop)
	if primary != nil {
		primary.stopAll()
	}
	if n.server != nil {
		n.server.Crash()
	}
	return nil
}

// Restart recovers a crashed member as a replica.
func (rs *Replicaset) Restart(id wire.NodeID) error {
	rs.mu.Lock()
	n := rs.nodes[id]
	if n == nil {
		rs.mu.Unlock()
		return fmt.Errorf("semisync: unknown member %s", id)
	}
	var spec NodeSpec
	for _, s := range rs.specs {
		if s.ID == id {
			spec = s
		}
	}
	delete(rs.nodes, id)
	rs.mu.Unlock()
	rs.net.SetNodeDown(id, false)
	return rs.startNode(spec)
}

// ResumeReplication re-adds a peer to the current primary's dump threads
// (after a member restart).
func (rs *Replicaset) ResumeReplication(peer wire.NodeID) {
	rs.mu.Lock()
	p := rs.nodes[rs.primary]
	rs.mu.Unlock()
	if p == nil {
		return
	}
	p.mu.Lock()
	primary := p.primary
	p.mu.Unlock()
	if primary != nil {
		primary.addPeer(peer)
	}
}

// AlignReplicaLogs truncates every live replica's log to the new
// primary's tail before replication resumes from it. In the prior setup
// this is the automation's GTID-based repoint step; entries beyond the
// chosen primary's log are lost (the semi-sync guarantee only covers
// entries acked by an acker, and only the most caught-up candidate keeps
// them — one reason the paper moved to Raft).
func (rs *Replicaset) AlignReplicaLogs(primaryID wire.NodeID) error {
	rs.mu.Lock()
	p := rs.nodes[primaryID]
	nodes := make([]*Node, 0, len(rs.nodes))
	for _, n := range rs.nodes {
		nodes = append(nodes, n)
	}
	rs.mu.Unlock()
	if p == nil {
		return fmt.Errorf("semisync: unknown primary %s", primaryID)
	}
	tail := p.LastIndex()
	for _, n := range nodes {
		if n.ID == primaryID || n.IsDown() {
			continue
		}
		if n.LastIndex() > tail {
			if _, err := n.store().TruncateAfter(tail); err != nil {
				return err
			}
		}
		n.mu.Lock()
		if n.replica != nil {
			n.replica.mu.Lock()
			if n.replica.last > tail {
				n.replica.last = tail
			}
			n.replica.mu.Unlock()
		}
		n.mu.Unlock()
	}
	return nil
}

// EngineChecksums returns per-MySQL-member engine checksums.
func (rs *Replicaset) EngineChecksums() map[wire.NodeID]uint32 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := make(map[wire.NodeID]uint32)
	for id, n := range rs.nodes {
		if n.server != nil && !n.down {
			out[id] = n.server.Checksum()
		}
	}
	return out
}

// Close shuts the replicaset down.
func (rs *Replicaset) Close() {
	rs.mu.Lock()
	nodes := make([]*Node, 0, len(rs.nodes))
	for _, n := range rs.nodes {
		nodes = append(nodes, n)
	}
	rs.mu.Unlock()
	for _, n := range nodes {
		n.mu.Lock()
		down := n.down
		primary := n.primary
		stop := n.stopRun
		n.down = true
		n.mu.Unlock()
		if down {
			continue
		}
		close(stop)
		if primary != nil {
			primary.stopAll()
		}
		if n.server != nil {
			n.server.Close()
		}
		if n.ltLog != nil {
			n.ltLog.store.Log.Close()
		}
	}
	if rs.ownsNet {
		rs.net.Close()
	}
	if rs.ownsDir {
		// Best effort: Close has no error to report a failed removal through.
		_ = os.RemoveAll(rs.opts.Dir)
	}
}

// WaitForPrimary blocks until a primary is published and writable.
func (rs *Replicaset) WaitForPrimary(ctx context.Context) (*Node, error) {
	for {
		if id, ok := rs.registry.Primary(rs.opts.Name); ok {
			n := rs.Node(id)
			if n != nil && !n.IsDown() && n.server != nil && !n.server.IsReadOnly() {
				return n, nil
			}
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}
