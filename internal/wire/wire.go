// Package wire defines the RPC messages exchanged by MyRaft nodes and
// their binary encoding. A hand-rolled codec (rather than gob/JSON) keeps
// message sizes deterministic, which the Proxying bandwidth evaluation
// (§4.2.2 of the paper) depends on: the whole point of PROXY_OP messages
// is that they carry request metadata but no payload, and the harness
// measures exactly how many bytes cross each region boundary.
package wire

import (
	"encoding/binary"
	"fmt"

	"myraft/internal/gtid"
	"myraft/internal/opid"
)

// NodeID identifies a member of the replicaset (MySQL instance or
// logtailer).
type NodeID string

// Region is a failure/latency domain (a geographical region in the paper).
type Region string

// MsgType discriminates wire messages.
type MsgType uint8

// Message type tags (stable; part of the wire format).
const (
	MsgAppendEntriesReq    MsgType = 1
	MsgAppendEntriesResp   MsgType = 2
	MsgRequestVoteReq      MsgType = 3
	MsgRequestVoteResp     MsgType = 4
	MsgStartElection       MsgType = 5
	MsgMockElectionResult  MsgType = 6
	MsgInstallSnapshotReq  MsgType = 7
	MsgInstallSnapshotResp MsgType = 8
	MsgShardEnvelope       MsgType = 9
	MsgCoalescedHeartbeat  MsgType = 10
)

// Message is implemented by every RPC payload.
type Message interface {
	Type() MsgType
}

// EntryType mirrors binlog entry types on the wire (the transport layer
// must not depend on the binlog package).
type EntryType uint8

// LogEntry is one replicated-log entry as carried by AppendEntries.
// IsProxy marks a PROXY_OP: metadata only, no payload; the final proxy
// node reconstitutes the payload from its own log before delivering to
// the destination (§4.2.1).
type LogEntry struct {
	OpID    opid.OpID
	Kind    EntryType
	HasGTID bool
	GTID    gtid.GTID
	Payload []byte
	IsProxy bool
}

// Member describes one replicaset member inside a Config.
type Member struct {
	ID      NodeID
	Region  Region
	Voter   bool // voters elect leaders; non-voters (learners) do not
	Witness bool // logtailer: has a log but no storage engine
}

// Config is the replicaset membership, replicated through the log as an
// EntryConfig payload. Only one membership change is allowed at a time
// (§2.2), so a Config fully replaces its predecessor.
type Config struct {
	Members []Member
}

// Clone returns a deep copy.
func (c Config) Clone() Config {
	return Config{Members: append([]Member(nil), c.Members...)}
}

// Find returns the member with the given ID, if present.
func (c Config) Find(id NodeID) (Member, bool) {
	for _, m := range c.Members {
		if m.ID == id {
			return m, true
		}
	}
	return Member{}, false
}

// Voters returns the voting members.
func (c Config) Voters() []Member {
	var out []Member
	for _, m := range c.Members {
		if m.Voter {
			out = append(out, m)
		}
	}
	return out
}

// Regions returns the distinct regions of voting members, in first-seen
// order.
func (c Config) Regions() []Region {
	var out []Region
	seen := make(map[Region]bool)
	for _, m := range c.Members {
		if m.Voter && !seen[m.Region] {
			seen[m.Region] = true
			out = append(out, m.Region)
		}
	}
	return out
}

// VotersInRegion returns the voting members of one region.
func (c Config) VotersInRegion(r Region) []Member {
	var out []Member
	for _, m := range c.Members {
		if m.Voter && m.Region == r {
			out = append(out, m)
		}
	}
	return out
}

// AppendEntriesReq is the Raft replication RPC. For proxied requests,
// Route holds the remaining downstream hops ending with the final
// destination; ReturnPath accumulates the hops taken so the response can
// be relayed back to the leader (§4.2).
type AppendEntriesReq struct {
	Term        uint64
	LeaderID    NodeID
	PrevOpID    opid.OpID
	Entries     []LogEntry
	CommitIndex uint64 // leader commit marker, piggybacked (§3.4)
	// ReadSeq is the leader's heartbeat-round sequence number. Followers
	// echo it so the leader can prove it was still the leader at the time
	// a round started: the quorum-acked round confirms leadership for
	// ReadIndex reads and renews the leader lease (internal/readpath).
	ReadSeq    uint64
	Route      []NodeID
	ReturnPath []NodeID
}

func (*AppendEntriesReq) Type() MsgType { return MsgAppendEntriesReq }

// AppendEntriesResp acknowledges replication. Route holds the remaining
// upstream hops back to the leader for proxied exchanges.
type AppendEntriesResp struct {
	Term       uint64
	From       NodeID
	Success    bool
	MatchIndex uint64 // highest log index known replicated on From
	LastIndex  uint64 // From's last log index (rejection hint)
	// ReadSeq echoes the request's heartbeat-round sequence. Even a
	// Success=false response (log mismatch) counts as a leadership ack:
	// the follower processed the request at the leader's term.
	ReadSeq uint64
	Route   []NodeID
}

func (*AppendEntriesResp) Type() MsgType { return MsgAppendEntriesResp }

// VoteKind selects the election round type.
type VoteKind uint8

const (
	// VoteReal is a regular Raft election round.
	VoteReal VoteKind = 0
	// VotePre is a Raft pre-election: no term is consumed.
	VotePre VoteKind = 1
	// VoteMock is a MyRaft mock election (§4.3): a simulated pre-check run
	// before TransferLeadership, carrying the current leader's cursor
	// snapshot. Voters in the candidate's region reject if they lag the
	// snapshot.
	VoteMock VoteKind = 2
)

// RequestVoteReq solicits a vote.
type RequestVoteReq struct {
	Term      uint64
	Candidate NodeID
	LastOpID  opid.OpID
	Kind      VoteKind
	Snapshot  opid.OpID // leader cursor snapshot for mock elections
}

func (*RequestVoteReq) Type() MsgType { return MsgRequestVoteReq }

// RequestVoteResp answers a vote solicitation. Granted responses carry
// the voter's view of the last known leader (region and term): FlexiRaft's
// single-region-dynamic mode derives the set of regions an election quorum
// must intersect from the voting history reported by granting voters
// (§4.1).
type RequestVoteResp struct {
	Term    uint64
	From    NodeID
	Granted bool
	Kind    VoteKind
	Reason  string // diagnostic, not used by the protocol

	LastLeaderRegion Region
	LastLeaderTerm   uint64
}

func (*RequestVoteResp) Type() MsgType { return MsgRequestVoteResp }

// MockElectionResult reports the outcome of a mock election round back to
// the leader that requested it (§4.3).
type MockElectionResult struct {
	Term    uint64
	From    NodeID
	Success bool
	Reason  string
}

func (*MockElectionResult) Type() MsgType { return MsgMockElectionResult }

// StartElection asks the target to begin an election round. The current
// leader sends it for graceful TransferLeadership (Mock=false, like Raft's
// TimeoutNow) and for the mock-election pre-check (Mock=true, carrying the
// leader's cursor snapshot).
type StartElection struct {
	Term     uint64
	From     NodeID
	Mock     bool
	Snapshot opid.OpID
}

func (*StartElection) Type() MsgType { return MsgStartElection }

// InstallSnapshotReq streams one chunk of an engine checkpoint to a
// follower whose log no longer overlaps the leader's (its nextIndex fell
// below the leader's FirstIndex after purging). Anchor is the snapshot's
// last applied op: after install the follower's log restarts empty at
// Anchor, and AppendEntries resumes at Anchor.Index+1. Snapshot transfer
// is always direct leader→target, never proxied: a PROXY_OP-style relay
// would require intermediate hops to buffer the full checkpoint.
type InstallSnapshotReq struct {
	Term     uint64
	LeaderID NodeID
	Anchor   opid.OpID
	GTIDSet  string // executed GTID set at the anchor
	Config   []byte // encoded membership at the anchor (EncodeConfig)
	Total    uint64 // checkpoint size in bytes, constant across chunks
	Offset   uint64 // byte offset of Chunk within the checkpoint
	Chunk    []byte
	Done     bool // last chunk; follower installs on receipt
}

func (*InstallSnapshotReq) Type() MsgType { return MsgInstallSnapshotReq }

// InstallSnapshotResp acknowledges a snapshot chunk. NextOffset is the
// next byte the follower wants, which lets the leader resume a transfer
// after drops or restarts instead of starting over. Installed reports
// that the final chunk was applied and the follower is ready for
// AppendEntries at Anchor.Index+1.
type InstallSnapshotResp struct {
	Term       uint64
	From       NodeID
	Success    bool
	NextOffset uint64
	Installed  bool
}

func (*InstallSnapshotResp) Type() MsgType { return MsgInstallSnapshotResp }

// ShardID identifies one raft ring (shard) inside a multi-shard process.
// Shard 0 is a valid shard; single-ring deployments never emit shard
// frames at all, so the tag space stays backward compatible.
type ShardID uint32

// ShardEnvelope wraps an encoded inner message with the shard it belongs
// to, so one transport endpoint per node can carry the traffic of every
// ring hosted by the process. Inner holds Marshal-encoded bytes rather
// than a Message so the envelope's metered size accounts for the real
// payload and the demux layer can route without re-encoding.
type ShardEnvelope struct {
	Shard ShardID
	Inner []byte
}

func (*ShardEnvelope) Type() MsgType { return MsgShardEnvelope }

// EncodedSize is len(Marshal(m)) without encoding: tag, shard, and the
// length-prefixed inner bytes. The in-process network meters shard
// frames with it instead of serializing Inner a second time.
func (m *ShardEnvelope) EncodedSize() int { return 1 + 4 + 4 + len(m.Inner) }

// ShardHeartbeat is one shard's piggybacked heartbeat inside a
// CoalescedHeartbeat: the Marshal-encoded empty AppendEntriesReq that the
// shard's leader would have sent on its own timer.
type ShardHeartbeat struct {
	Shard ShardID
	Req   []byte
}

// CoalescedHeartbeat carries the heartbeats of every shard whose leader
// lives on the sending node and replicates to the receiving peer, in one
// physical message — collapsing O(shards × peers) heartbeat traffic into
// O(peers) (multiraft coalescing, DESIGN.md §8).
type CoalescedHeartbeat struct {
	Items []ShardHeartbeat
}

func (*CoalescedHeartbeat) Type() MsgType { return MsgCoalescedHeartbeat }

// EncodedSize is len(Marshal(m)) without encoding: tag, item count, and
// per item its shard plus length-prefixed request bytes.
func (m *CoalescedHeartbeat) EncodedSize() int {
	n := 1 + 4
	for _, it := range m.Items {
		n += 4 + 4 + len(it.Req)
	}
	return n
}

// --- binary codec ---

type encoder struct{ buf []byte }

func (e *encoder) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *encoder) bool(v bool)  { e.u8(b2u(v)) }
func (e *encoder) u32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }
func (e *encoder) opid(o opid.OpID) {
	e.u64(o.Term)
	e.u64(o.Index)
}
func (e *encoder) bytes(b []byte) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(len(b)))
	e.buf = append(e.buf, b...)
}
func (e *encoder) str(s string) { e.bytes([]byte(s)) }
func (e *encoder) nodeList(ids []NodeID) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(len(ids)))
	for _, id := range ids {
		e.str(string(id))
	}
}

func b2u(v bool) uint8 {
	if v {
		return 1
	}
	return 0
}

type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: truncated %s", what)
	}
}

func (d *decoder) u8() uint8 {
	if d.err != nil || len(d.buf) < 1 {
		d.fail("u8")
		return 0
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	return v
}

func (d *decoder) bool() bool { return d.u8() == 1 }

func (d *decoder) u32() uint32 {
	if d.err != nil || len(d.buf) < 4 {
		d.fail("u32")
		return 0
	}
	v := binary.BigEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil || len(d.buf) < 8 {
		d.fail("u64")
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

func (d *decoder) opid() opid.OpID {
	t := d.u64()
	i := d.u64()
	return opid.OpID{Term: t, Index: i}
}

func (d *decoder) bytes() []byte {
	if d.err != nil || len(d.buf) < 4 {
		d.fail("bytes len")
		return nil
	}
	n := binary.BigEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	if uint32(len(d.buf)) < n {
		d.fail("bytes body")
		return nil
	}
	if n == 0 {
		return nil
	}
	out := append([]byte{}, d.buf[:n]...)
	d.buf = d.buf[n:]
	return out
}

func (d *decoder) str() string { return string(d.bytes()) }

func (d *decoder) nodeList() []NodeID {
	if d.err != nil || len(d.buf) < 4 {
		d.fail("node list")
		return nil
	}
	n := binary.BigEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	if n > 1<<16 {
		d.fail("node list size")
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]NodeID, 0, n)
	for i := uint32(0); i < n; i++ {
		out = append(out, NodeID(d.str()))
	}
	return out
}

func encodeLogEntry(e *encoder, le *LogEntry) {
	e.opid(le.OpID)
	e.u8(uint8(le.Kind))
	e.bool(le.HasGTID)
	e.str(string(le.GTID.Source))
	e.u64(uint64(le.GTID.ID))
	e.bool(le.IsProxy)
	if le.IsProxy {
		// PROXY_OP: metadata only. The payload length is carried so the
		// reconstituting proxy can sanity-check, but no payload bytes.
		e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(len(le.Payload)))
	} else {
		e.bytes(le.Payload)
	}
}

func decodeLogEntry(d *decoder) LogEntry {
	var le LogEntry
	le.OpID = d.opid()
	le.Kind = EntryType(d.u8())
	le.HasGTID = d.bool()
	le.GTID.Source = gtid.UUID(d.str())
	le.GTID.ID = int64(d.u64())
	le.IsProxy = d.bool()
	if le.IsProxy {
		// length only; payload stays nil
		if len(d.buf) < 4 {
			d.fail("proxy len")
		} else {
			d.buf = d.buf[4:]
		}
	} else {
		le.Payload = d.bytes()
	}
	return le
}

// EncodeConfig serializes a Config for storage in an EntryConfig payload.
func EncodeConfig(c Config) []byte {
	e := &encoder{}
	e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(len(c.Members)))
	for _, m := range c.Members {
		e.str(string(m.ID))
		e.str(string(m.Region))
		e.bool(m.Voter)
		e.bool(m.Witness)
	}
	return e.buf
}

// DecodeConfig parses an EntryConfig payload.
func DecodeConfig(data []byte) (Config, error) {
	d := &decoder{buf: data}
	if len(d.buf) < 4 {
		return Config{}, fmt.Errorf("wire: truncated config")
	}
	n := binary.BigEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	if n > 1<<16 {
		return Config{}, fmt.Errorf("wire: config too large")
	}
	c := Config{Members: make([]Member, 0, n)}
	for i := uint32(0); i < n; i++ {
		var m Member
		m.ID = NodeID(d.str())
		m.Region = Region(d.str())
		m.Voter = d.bool()
		m.Witness = d.bool()
		c.Members = append(c.Members, m)
	}
	if d.err != nil {
		return Config{}, d.err
	}
	if len(d.buf) != 0 {
		return Config{}, fmt.Errorf("wire: %d trailing config bytes", len(d.buf))
	}
	return c, nil
}

// Marshal serializes a message with its type tag.
func Marshal(m Message) ([]byte, error) {
	e := &encoder{}
	e.u8(uint8(m.Type()))
	switch msg := m.(type) {
	case *AppendEntriesReq:
		e.u64(msg.Term)
		e.str(string(msg.LeaderID))
		e.opid(msg.PrevOpID)
		e.u64(msg.CommitIndex)
		e.u64(msg.ReadSeq)
		e.nodeList(msg.Route)
		e.nodeList(msg.ReturnPath)
		e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(len(msg.Entries)))
		for i := range msg.Entries {
			encodeLogEntry(e, &msg.Entries[i])
		}
	case *AppendEntriesResp:
		e.u64(msg.Term)
		e.str(string(msg.From))
		e.bool(msg.Success)
		e.u64(msg.MatchIndex)
		e.u64(msg.LastIndex)
		e.u64(msg.ReadSeq)
		e.nodeList(msg.Route)
	case *RequestVoteReq:
		e.u64(msg.Term)
		e.str(string(msg.Candidate))
		e.opid(msg.LastOpID)
		e.u8(uint8(msg.Kind))
		e.opid(msg.Snapshot)
	case *RequestVoteResp:
		e.u64(msg.Term)
		e.str(string(msg.From))
		e.bool(msg.Granted)
		e.u8(uint8(msg.Kind))
		e.str(msg.Reason)
		e.str(string(msg.LastLeaderRegion))
		e.u64(msg.LastLeaderTerm)
	case *MockElectionResult:
		e.u64(msg.Term)
		e.str(string(msg.From))
		e.bool(msg.Success)
		e.str(msg.Reason)
	case *StartElection:
		e.u64(msg.Term)
		e.str(string(msg.From))
		e.bool(msg.Mock)
		e.opid(msg.Snapshot)
	case *InstallSnapshotReq:
		e.u64(msg.Term)
		e.str(string(msg.LeaderID))
		e.opid(msg.Anchor)
		e.str(msg.GTIDSet)
		e.bytes(msg.Config)
		e.u64(msg.Total)
		e.u64(msg.Offset)
		e.bytes(msg.Chunk)
		e.bool(msg.Done)
	case *InstallSnapshotResp:
		e.u64(msg.Term)
		e.str(string(msg.From))
		e.bool(msg.Success)
		e.u64(msg.NextOffset)
		e.bool(msg.Installed)
	case *ShardEnvelope:
		e.u32(uint32(msg.Shard))
		e.bytes(msg.Inner)
	case *CoalescedHeartbeat:
		e.u32(uint32(len(msg.Items)))
		for _, it := range msg.Items {
			e.u32(uint32(it.Shard))
			e.bytes(it.Req)
		}
	default:
		return nil, fmt.Errorf("wire: unknown message type %T", m)
	}
	return e.buf, nil
}

// Unmarshal parses a message produced by Marshal.
func Unmarshal(data []byte) (Message, error) {
	if len(data) < 1 {
		return nil, fmt.Errorf("wire: empty message")
	}
	d := &decoder{buf: data[1:]}
	var m Message
	switch MsgType(data[0]) {
	case MsgAppendEntriesReq:
		msg := &AppendEntriesReq{}
		msg.Term = d.u64()
		msg.LeaderID = NodeID(d.str())
		msg.PrevOpID = d.opid()
		msg.CommitIndex = d.u64()
		msg.ReadSeq = d.u64()
		msg.Route = d.nodeList()
		msg.ReturnPath = d.nodeList()
		if d.err == nil {
			if len(d.buf) < 4 {
				d.fail("entry count")
			} else {
				n := binary.BigEndian.Uint32(d.buf)
				d.buf = d.buf[4:]
				if n > 1<<20 {
					d.fail("entry count size")
				}
				for i := uint32(0); i < n && d.err == nil; i++ {
					msg.Entries = append(msg.Entries, decodeLogEntry(d))
				}
			}
		}
		m = msg
	case MsgAppendEntriesResp:
		msg := &AppendEntriesResp{}
		msg.Term = d.u64()
		msg.From = NodeID(d.str())
		msg.Success = d.bool()
		msg.MatchIndex = d.u64()
		msg.LastIndex = d.u64()
		msg.ReadSeq = d.u64()
		msg.Route = d.nodeList()
		m = msg
	case MsgRequestVoteReq:
		msg := &RequestVoteReq{}
		msg.Term = d.u64()
		msg.Candidate = NodeID(d.str())
		msg.LastOpID = d.opid()
		msg.Kind = VoteKind(d.u8())
		msg.Snapshot = d.opid()
		m = msg
	case MsgRequestVoteResp:
		msg := &RequestVoteResp{}
		msg.Term = d.u64()
		msg.From = NodeID(d.str())
		msg.Granted = d.bool()
		msg.Kind = VoteKind(d.u8())
		msg.Reason = d.str()
		msg.LastLeaderRegion = Region(d.str())
		msg.LastLeaderTerm = d.u64()
		m = msg
	case MsgMockElectionResult:
		msg := &MockElectionResult{}
		msg.Term = d.u64()
		msg.From = NodeID(d.str())
		msg.Success = d.bool()
		msg.Reason = d.str()
		m = msg
	case MsgStartElection:
		msg := &StartElection{}
		msg.Term = d.u64()
		msg.From = NodeID(d.str())
		msg.Mock = d.bool()
		msg.Snapshot = d.opid()
		m = msg
	case MsgInstallSnapshotReq:
		msg := &InstallSnapshotReq{}
		msg.Term = d.u64()
		msg.LeaderID = NodeID(d.str())
		msg.Anchor = d.opid()
		msg.GTIDSet = d.str()
		msg.Config = d.bytes()
		msg.Total = d.u64()
		msg.Offset = d.u64()
		msg.Chunk = d.bytes()
		msg.Done = d.bool()
		m = msg
	case MsgInstallSnapshotResp:
		msg := &InstallSnapshotResp{}
		msg.Term = d.u64()
		msg.From = NodeID(d.str())
		msg.Success = d.bool()
		msg.NextOffset = d.u64()
		msg.Installed = d.bool()
		m = msg
	case MsgShardEnvelope:
		msg := &ShardEnvelope{}
		msg.Shard = ShardID(d.u32())
		msg.Inner = d.bytes()
		m = msg
	case MsgCoalescedHeartbeat:
		msg := &CoalescedHeartbeat{}
		n := d.u32()
		if n > 1<<16 {
			d.fail("coalesced heartbeat count")
		}
		for i := uint32(0); i < n && d.err == nil; i++ {
			var it ShardHeartbeat
			it.Shard = ShardID(d.u32())
			it.Req = d.bytes()
			msg.Items = append(msg.Items, it)
		}
		m = msg
	default:
		return nil, fmt.Errorf("wire: unknown message tag %d", data[0])
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes", len(d.buf))
	}
	return m, nil
}
