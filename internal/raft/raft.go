// Package raft implements the consensus core of MyRaft: a from-scratch
// Raft (standing in for kuduraft, §3 of the paper) extended with the
// paper's three contributions — FlexiRaft flexible quorums (§4.1),
// replication Proxying with PROXY_OP reconstitution (§4.2), and mock
// elections before graceful leadership transfer (§4.3).
//
// The node is substrate-agnostic: it drives a LogStore (the mysql_raft_repl
// plugin implements it over MySQL binlogs/relay-logs) and orchestrates the
// state machine through Callbacks (promotion and demotion of the attached
// MySQL server). Each node runs a single event-loop goroutine; all state
// transitions are serialized there.
package raft

import (
	"errors"
	"fmt"
	"time"

	"myraft/internal/opid"
	"myraft/internal/quorum"
	"myraft/internal/trace"
	"myraft/internal/transport"
	"myraft/internal/wire"
)

// Role is the Raft role of a node.
type Role int

const (
	// RoleFollower receives replicated entries from the leader.
	RoleFollower Role = iota
	// RoleCandidate is running an election.
	RoleCandidate
	// RoleLeader accepts proposals and replicates them.
	RoleLeader
)

func (r Role) String() string {
	switch r {
	case RoleFollower:
		return "follower"
	case RoleCandidate:
		return "candidate"
	case RoleLeader:
		return "leader"
	default:
		return "unknown"
	}
}

// MarshalText renders the role by name, the form status JSON carries.
func (r Role) MarshalText() ([]byte, error) { return []byte(r.String()), nil }

// UnmarshalText parses a role name written by MarshalText.
func (r *Role) UnmarshalText(b []byte) error {
	for c := RoleFollower; c <= RoleLeader; c++ {
		if c.String() == string(b) {
			*r = c
			return nil
		}
	}
	return fmt.Errorf("raft: unknown role %q", b)
}

// Errors returned by the public API.
var (
	// ErrNotLeader rejects proposals and admin operations on non-leaders.
	ErrNotLeader = errors.New("raft: not the leader")
	// ErrQuiesced rejects proposals while a leadership transfer is in its
	// quiesced phase.
	ErrQuiesced = errors.New("raft: writes quiesced for leadership transfer")
	// ErrLeadershipLost aborts commit waits when the node loses
	// leadership; MySQL rolls the affected prepared transactions back
	// (§3.3 demotion step 1).
	ErrLeadershipLost = errors.New("raft: leadership lost")
	// ErrStopped is returned after Stop.
	ErrStopped = errors.New("raft: node stopped")
	// ErrConfChangeInFlight enforces one membership change at a time.
	ErrConfChangeInFlight = errors.New("raft: membership change already in flight")
	// ErrUnknownMember rejects operations naming nodes outside the config.
	ErrUnknownMember = errors.New("raft: unknown member")
	// ErrTransferFailed reports an unsuccessful leadership transfer.
	ErrTransferFailed = errors.New("raft: leadership transfer failed")
	// ErrInvalidConfig rejects, at Start, a Config whose timing
	// parameters would wedge the node's tickers instead of driving them.
	ErrInvalidConfig = errors.New("raft: invalid config")
	// ErrLeaseExpired rejects a LeaseRead when the leader lease is not
	// currently valid; callers fall back to ReadIndex.
	ErrLeaseExpired = errors.New("raft: leader lease expired")
)

// Transport sends messages to peers and surfaces received envelopes.
// transport.Endpoint satisfies it.
type Transport interface {
	Send(to wire.NodeID, msg wire.Message) error
	Recv() <-chan transport.Envelope
}

// LogStore is the replicated-log abstraction (§3.1): kuduraft cannot read
// MySQL binlog files natively, so the plugin specializes this interface
// over the binlog. All indexes are contiguous; Append must reject gaps.
type LogStore interface {
	// Append writes one entry at the tail. A log entry's payload is
	// immutable once appended: the node's entry cache and the store may
	// both keep e.Payload itself and hand it to readers, so nobody may
	// modify it afterwards. On a follower e.Payload is a sub-slice of the
	// AppendEntries frame it arrived in (wire.Unmarshal decodes in place),
	// which is immutable too; a store that keeps it keeps the frame alive.
	Append(e *wire.LogEntry) error
	// Entry reads the entry at index, possibly parsing historical log
	// files on disk (the lagging-follower path of §3.1).
	Entry(index uint64) (*wire.LogEntry, error)
	// LastOpID returns the tail OpID, or opid.Zero when empty.
	LastOpID() opid.OpID
	// FirstIndex returns the lowest readable index, or 0 when empty.
	FirstIndex() uint64
	// TruncateAfter removes entries with index > index, returning them
	// oldest-first so GTID metadata can be unwound.
	TruncateAfter(index uint64) ([]*wire.LogEntry, error)
	// Sync makes appended entries durable. The node calls Append and Sync
	// only from its dedicated log-writer goroutine (durability.go), never
	// from the event loop; one Sync covers every Append since the last.
	Sync() error
}

// PromoteInfo accompanies the promotion callback.
type PromoteInfo struct {
	Term uint64
	// NoOpIndex is the index of the leadership-assertion No-Op entry; the
	// state machine must catch up to it before enabling writes (§3.3
	// promotion step 2).
	NoOpIndex uint64
	// PrevLeader is the last leader this node heard from before it won
	// (empty if none): after a crash, the member whose loss caused the
	// election. A witness hands leadership to anyone else first.
	PrevLeader wire.NodeID
}

// Callbacks is the callback API from Raft into the state machine (§3.1):
// Raft orchestrates MySQL's transition between primary and replica
// personas through these hooks. Implementations must not block the
// calling goroutine for long; OnPromote and OnDemote are invoked
// asynchronously by the node.
type Callbacks interface {
	// OnPromote configures the state machine as primary after this node
	// wins an election.
	OnPromote(info PromoteInfo)
	// OnDemote configures the state machine as replica after this node
	// cedes leadership.
	OnDemote(term uint64)
	// OnCommitAdvance reports consensus-commit progress; the commit
	// pipeline's wait stage and the applier gate on it (§3.4–3.5).
	OnCommitAdvance(commitIndex uint64)
	// OnMembershipChange reports a new active config (applied as soon as
	// the config entry is written to the log, per §2.2).
	OnMembershipChange(cfg wire.Config)
}

// NopCallbacks is a Callbacks that does nothing; witnesses and tests
// embed it.
type NopCallbacks struct{}

// OnPromote implements Callbacks.
func (NopCallbacks) OnPromote(PromoteInfo) {}

// OnDemote implements Callbacks.
func (NopCallbacks) OnDemote(uint64) {}

// OnCommitAdvance implements Callbacks.
func (NopCallbacks) OnCommitAdvance(uint64) {}

// OnMembershipChange implements Callbacks.
func (NopCallbacks) OnMembershipChange(wire.Config) {}

// RouteFunc plans the replication path from the leader to a peer for
// Proxying (§4.2). It returns the hop list ending with the peer itself;
// a single-element list means direct delivery. Nil RouteFunc means all
// traffic is direct (vanilla Raft topology). It must depend on its
// arguments only: a node calls it once per peer and membership and reuses
// the list, which nobody may modify afterwards.
type RouteFunc func(cfg wire.Config, self, peer wire.NodeID) []wire.NodeID

// RegionProxyRoute is the paper's production routing policy: the leader
// sends one full-payload stream to a designated proxy per remote region
// (the region's first MySQL voter, falling back to any member) and routes
// all other members of that region through it with PROXY_OPs. In-region
// peers are always direct.
func RegionProxyRoute(cfg wire.Config, self, peer wire.NodeID) []wire.NodeID {
	selfM, okSelf := cfg.Find(self)
	peerM, okPeer := cfg.Find(peer)
	if !okSelf || !okPeer || selfM.Region == peerM.Region {
		return []wire.NodeID{peer}
	}
	proxy := designatedProxy(cfg, peerM.Region)
	if proxy == "" || proxy == peer {
		return []wire.NodeID{peer}
	}
	return []wire.NodeID{proxy, peer}
}

// designatedProxy picks the proxy member for a region: the first
// non-witness voter, else the first member.
func designatedProxy(cfg wire.Config, r wire.Region) wire.NodeID {
	var fallback wire.NodeID
	for _, m := range cfg.Members {
		if m.Region != r {
			continue
		}
		if m.Voter && !m.Witness {
			return m.ID
		}
		if fallback == "" {
			fallback = m.ID
		}
	}
	return fallback
}

// Config configures a Node.
type Config struct {
	// ID is this node's identity; it must appear in the bootstrap config.
	ID wire.NodeID
	// Region is this node's failure/latency domain.
	Region wire.Region

	// HeartbeatInterval is the leader's replication/heartbeat cadence.
	// The paper's production setting is 500ms.
	HeartbeatInterval time.Duration
	// ElectionTimeoutTicks is how many missed heartbeats trigger an
	// election; the paper requires three consecutive misses.
	ElectionTimeoutTicks int
	// ElectionTimeoutBias is added to every election deadline, letting a
	// deployment stagger who campaigns first. MyRaft biases MySQL voters
	// behind the in-region logtailers: the logtailer tends to hold the
	// longest log (§4.1), so letting it win the first election avoids
	// split-vote rounds; it then hands leadership to a MySQL voter.
	ElectionTimeoutBias time.Duration

	// Strategy selects the quorum mode (default vanilla Majority;
	// production MyRaft uses quorum.SingleRegionDynamic).
	Strategy quorum.Strategy

	// Route plans proxied replication paths; nil means direct.
	Route RouteFunc
	// ProxyWait bounds how long a final proxy waits for a missing entry
	// before degrading the proxied message to a heartbeat (§4.2.1).
	// Default: one heartbeat interval.
	ProxyWait time.Duration
	// RouteAroundAfter is how long a proxy may be silent before the
	// leader routes around it and sends directly (§4.2.3). Default: three
	// heartbeat intervals.
	RouteAroundAfter time.Duration

	// MockLagAllowance is how many entries an in-region voter may trail
	// the leader's snapshot before a mock election counts it as lagging
	// (§4.3). Default 1024.
	MockLagAllowance uint64
	// DisableMockElection skips the §4.3 pre-check entirely, restoring
	// stock kuduraft behaviour where a graceful transfer's only criterion
	// is target catch-up. Exists for the ablation benchmarks.
	DisableMockElection bool

	// AutoStepDownAfter makes a leader that has not heard from its
	// data-commit quorum for this long relinquish leadership. kuduraft —
	// and therefore production MyRaft — does NOT implement this (§4.1:
	// "we currently choose consistency over availability and wait for
	// the network partition to heal"); it is offered as the extension
	// the paper discusses, default off (0) to match the paper.
	AutoStepDownAfter time.Duration

	// MaxUnsyncedBytes bounds the bytes handed to the log writer but not
	// yet covered by a group fsync; past the bound, new appends block the
	// event loop until the writer catches up (backpressure, surfaced as
	// loop-blocked time in DurabilityStats). Default 8 MiB; negative
	// disables the bound.
	MaxUnsyncedBytes int64

	// TransferTimeout bounds a graceful leadership transfer. Default 20
	// heartbeat intervals.
	TransferTimeout time.Duration

	// SnapshotProvider, when set, lets this node (as leader) stream engine
	// checkpoints to followers whose logs fell behind the purge floor
	// (snapshot.go). Nil disables snapshot catch-up: lagging peers are
	// served from the oldest retained entry.
	SnapshotProvider SnapshotProvider
	// SnapshotSink, when set, lets this node (as follower) install
	// received checkpoints. Nil makes it reject snapshot transfers.
	SnapshotSink SnapshotSink
	// SnapshotChunkSize caps the bytes per InstallSnapshot message.
	// Default 256 KiB.
	SnapshotChunkSize int

	// LeaseDuration is how long a quorum-confirmed heartbeat round vouches
	// for leadership on the LeaseRead path. Safety requires it not exceed
	// the minimum election timeout (a new leader must not be electable
	// while an old lease can still serve); the default is exactly
	// ElectionTimeoutTicks heartbeat intervals, the un-jittered minimum.
	LeaseDuration time.Duration
	// MaxClockSkew is the assumed worst-case clock drift between members;
	// it is subtracted from every lease expiry. Default: LeaseDuration/10.
	// Setting it at or above LeaseDuration disables lease reads entirely
	// (every LeaseRead falls back to ReadIndex).
	MaxClockSkew time.Duration

	// StateDir, when non-empty, persists the Raft hard state (term and
	// vote) across restarts.
	StateDir string

	// OnRoleChange, when set, is invoked synchronously on the node's event
	// loop at every role transition (becoming follower, candidate, or
	// leader). Implementations must be fast and must not call back into
	// the node. The chaos harness uses it to machine-check election safety
	// — at most one leader per term — across a whole fault schedule.
	OnRoleChange func(RoleChange)

	// Tracer, when set, samples write-path transactions through this node:
	// leader proposals observe the append/fsync/replicate stages, follower
	// appends observe append/fsync. Share one tracer between a member's
	// raft node and its mysql server so a sampled transaction's span spans
	// both layers. Nil disables tracing at zero cost beyond a nil check.
	Tracer *trace.Tracer
}

// RoleChange is the payload of the Config.OnRoleChange hook: the node's
// identity and its post-transition role, term, and known leader.
type RoleChange struct {
	ID     wire.NodeID
	Term   uint64
	Role   Role
	Leader wire.NodeID
}

// validate rejects configs that cannot drive the event loop. It runs on
// the defaulted config (NewNode fills zero values), so what it catches in
// practice are explicitly negative settings: a non-positive heartbeat
// interval would panic the ticker, and a non-positive election timeout
// would depose every leader on its first tick.
func (c Config) validate() error {
	if c.HeartbeatInterval <= 0 {
		return fmt.Errorf("%w: HeartbeatInterval %v must be positive", ErrInvalidConfig, c.HeartbeatInterval)
	}
	if c.ElectionTimeoutTicks <= 0 {
		return fmt.Errorf("%w: ElectionTimeoutTicks %d must be positive", ErrInvalidConfig, c.ElectionTimeoutTicks)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 500 * time.Millisecond
	}
	if c.ElectionTimeoutTicks == 0 {
		c.ElectionTimeoutTicks = 3
	}
	if c.Strategy == nil {
		c.Strategy = quorum.Majority{}
	}
	if c.ProxyWait == 0 {
		c.ProxyWait = c.HeartbeatInterval
	}
	if c.RouteAroundAfter == 0 {
		c.RouteAroundAfter = 3 * c.HeartbeatInterval
	}
	if c.MockLagAllowance == 0 {
		c.MockLagAllowance = 1024
	}
	if c.MaxUnsyncedBytes == 0 {
		c.MaxUnsyncedBytes = 8 << 20
	}
	if c.TransferTimeout == 0 {
		c.TransferTimeout = 20 * c.HeartbeatInterval
	}
	if c.SnapshotChunkSize == 0 {
		c.SnapshotChunkSize = 256 << 10
	}
	if c.LeaseDuration == 0 {
		c.LeaseDuration = time.Duration(c.ElectionTimeoutTicks) * c.HeartbeatInterval
	}
	if c.MaxClockSkew == 0 {
		c.MaxClockSkew = c.LeaseDuration / 10
	}
	return c
}

// Scale divides all durations in the config by f, for time-scaled
// experiment runs.
func (c Config) Scale(f float64) Config {
	scale := func(d time.Duration) time.Duration {
		if d == 0 {
			return 0
		}
		return time.Duration(float64(d) / f)
	}
	c.HeartbeatInterval = scale(c.HeartbeatInterval)
	c.ProxyWait = scale(c.ProxyWait)
	c.RouteAroundAfter = scale(c.RouteAroundAfter)
	c.TransferTimeout = scale(c.TransferTimeout)
	c.LeaseDuration = scale(c.LeaseDuration)
	c.MaxClockSkew = scale(c.MaxClockSkew)
	return c
}

// Status is a point-in-time snapshot of node state. Its JSON keys are
// the raft half of an adminapi member status and its metric tags name
// the member's raft gauges; the fields tagged "-" stay off the wire.
type Status struct {
	ID          wire.NodeID `json:"-"`
	Role        Role        `json:"role"`
	Term        uint64      `json:"term,omitempty" metric:"raft_term"`
	Leader      wire.NodeID `json:"leader,omitempty"`
	CommitIndex uint64      `json:"commit_index,omitempty" metric:"raft_commit_index"`
	LastOpID    opid.OpID   `json:"last_opid"`
	// FirstIndex is the lowest log index still retained (0 when the log
	// holds no entries, e.g. right after a snapshot install).
	FirstIndex uint64 `json:"first_index,omitempty" metric:"raft_first_index"`
	// SnapshotAnchor is the op the log was last reset to by a snapshot
	// install (zero when none). The log logically starts just above it.
	SnapshotAnchor opid.OpID `json:"snapshot_anchor,omitzero"`
	// DurableIndex is the highest locally fsynced log index — this node's
	// own gated vote toward commit (durability.go). It can trail LastOpID
	// while appends sit in the log writer's queue.
	DurableIndex uint64      `json:"-"`
	Config       wire.Config `json:"-"`
	// Match maps peers to their replicated index (leader only).
	Match map[wire.NodeID]uint64 `json:"-"`
	// RegionWatermarks is the per-region replication watermark
	// (leader only, §4.1/§A.1).
	RegionWatermarks map[wire.Region]uint64 `json:"-"`
	// Transferring reports an in-flight graceful transfer.
	Transferring bool `json:"-"`
	// LeaseHeld reports a currently valid leader lease (leader only).
	LeaseHeld bool `json:"lease_held,omitempty"`
	// LeaseExpiry is when the lease lapses (leader only; zero when the
	// lease has never been granted this term).
	LeaseExpiry time.Time `json:"lease_expiry,omitzero"`
}
