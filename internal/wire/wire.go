// Package wire defines the RPC messages exchanged by MyRaft nodes and
// their binary encoding. A hand-rolled codec (rather than gob/JSON) keeps
// message sizes deterministic, which the Proxying bandwidth evaluation
// (§4.2.2 of the paper) depends on: the whole point of PROXY_OP messages
// is that they carry request metadata but no payload, and the harness
// measures exactly how many bytes cross each region boundary.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

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
	// EncodedSize is len(Marshal(m)), computed without encoding: Marshal
	// sizes its one buffer with it, and the in-process network meters
	// frames it does not re-encode.
	EncodedSize() int
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
	// ProxyLen is the payload length a PROXY_OP declares on the wire in
	// place of the payload. Unmarshal sets it; Marshal writes
	// len(Payload) instead when Payload is non-empty.
	ProxyLen uint32
}

// encodedSize is the entry's length on the wire.
func (le *LogEntry) encodedSize() int {
	n := 16 + 1 + 1 + strSize(string(le.GTID.Source)) + 8 + 1 + 4
	if !le.IsProxy {
		n += len(le.Payload)
	}
	return n
}

// proxyLen is the payload length a PROXY_OP carries on the wire.
func (le *LogEntry) proxyLen() uint32 {
	if len(le.Payload) > 0 {
		return uint32(len(le.Payload))
	}
	return le.ProxyLen
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

func (m *AppendEntriesReq) EncodedSize() int {
	n := 1 + 8 + strSize(string(m.LeaderID)) + 16 + 8 + 8 + idsSize(m.Route) + idsSize(m.ReturnPath) + 4
	for i := range m.Entries {
		n += m.Entries[i].encodedSize()
	}
	return n
}

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

func (m *AppendEntriesResp) EncodedSize() int {
	return 1 + 8 + strSize(string(m.From)) + 1 + 8 + 8 + 8 + idsSize(m.Route)
}

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

func (m *RequestVoteReq) EncodedSize() int {
	return 1 + 8 + strSize(string(m.Candidate)) + 16 + 1 + 16
}

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

func (m *RequestVoteResp) EncodedSize() int {
	return 1 + 8 + strSize(string(m.From)) + 1 + 1 + strSize(m.Reason) + strSize(string(m.LastLeaderRegion)) + 8
}

// MockElectionResult reports the outcome of a mock election round back to
// the leader that requested it (§4.3).
type MockElectionResult struct {
	Term    uint64
	From    NodeID
	Success bool
	Reason  string
}

func (*MockElectionResult) Type() MsgType { return MsgMockElectionResult }

func (m *MockElectionResult) EncodedSize() int {
	return 1 + 8 + strSize(string(m.From)) + 1 + strSize(m.Reason)
}

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

func (m *StartElection) EncodedSize() int { return 1 + 8 + strSize(string(m.From)) + 1 + 16 }

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

func (m *InstallSnapshotReq) EncodedSize() int {
	return 1 + 8 + strSize(string(m.LeaderID)) + 16 + strSize(m.GTIDSet) + 4 + len(m.Config) + 8 + 8 + 4 + len(m.Chunk) + 1
}

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

func (m *InstallSnapshotResp) EncodedSize() int { return 1 + 8 + strSize(string(m.From)) + 1 + 8 + 1 }

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

func (m *CoalescedHeartbeat) EncodedSize() int {
	n := 1 + 4
	for _, it := range m.Items {
		n += 4 + 4 + len(it.Req)
	}
	return n
}

// Frame is a message marshalled once for several sends: a leader that
// sends the same AppendEntries batch to k peers encodes it once and hands
// every Send the same Frame. Data is Marshal(Msg) and, like every frame
// on this network, immutable once built. Transports that deliver message
// objects unwrap it (Unwrap); those that ship bytes use Data as is.
type Frame struct {
	Msg  Message
	Data []byte
}

// NewFrame marshals m once into a Frame.
func NewFrame(m Message) (*Frame, error) {
	data, err := Marshal(m)
	if err != nil {
		return nil, err
	}
	return &Frame{Msg: m, Data: data}, nil
}

func (f *Frame) Type() MsgType { return f.Msg.Type() }

func (f *Frame) EncodedSize() int { return len(f.Data) }

// Unwrap returns the message a Frame carries, or m itself.
func Unwrap(m Message) Message {
	if f, ok := m.(*Frame); ok {
		return f.Msg
	}
	return m
}

// --- binary codec ---
//
// Encoding sizes before it fills: every message reports its exact
// EncodedSize, Marshal allocates one buffer of that size, and the append*
// helpers fill it without growing it. Decoding works in place: byte
// fields are capacity-capped sub-slices of the frame, and node IDs and
// GTID sources come from the intern table below.

func strSize(s string) int { return 4 + len(s) }

func idsSize(ids []NodeID) int {
	n := 4
	for _, id := range ids {
		n += strSize(string(id))
	}
	return n
}

func appendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendOpID(b []byte, o opid.OpID) []byte {
	return appendU64(appendU64(b, o.Term), o.Index)
}

func appendBytes(b, v []byte) []byte { return append(appendU32(b, uint32(len(v))), v...) }
func appendStr(b []byte, s string) []byte {
	return append(appendU32(b, uint32(len(s))), s...)
}

func appendIDs(b []byte, ids []NodeID) []byte {
	b = appendU32(b, uint32(len(ids)))
	for _, id := range ids {
		b = appendStr(b, string(id))
	}
	return b
}

func appendLogEntry(b []byte, le *LogEntry) []byte {
	b = appendOpID(b, le.OpID)
	b = append(b, uint8(le.Kind))
	b = appendBool(b, le.HasGTID)
	b = appendStr(b, string(le.GTID.Source))
	b = appendU64(b, uint64(le.GTID.ID))
	b = appendBool(b, le.IsProxy)
	if le.IsProxy {
		// PROXY_OP: metadata only. The payload length is carried so the
		// reconstituting proxy can sanity-check, but no payload bytes.
		return appendU32(b, le.proxyLen())
	}
	return appendBytes(b, le.Payload)
}

// Marshal serializes a message with its type tag into one buffer of
// exactly m.EncodedSize() bytes.
func Marshal(m Message) ([]byte, error) {
	return AppendMarshal(make([]byte, 0, m.EncodedSize()), m)
}

// AppendMarshal appends the encoding of m to dst and returns the extended
// slice. With cap(dst)-len(dst) ≥ m.EncodedSize() it does not allocate.
func AppendMarshal(dst []byte, m Message) ([]byte, error) {
	b := dst
	switch msg := m.(type) {
	case *Frame:
		return append(b, msg.Data...), nil
	case *AppendEntriesReq:
		b = append(b, uint8(MsgAppendEntriesReq))
		b = appendU64(b, msg.Term)
		b = appendStr(b, string(msg.LeaderID))
		b = appendOpID(b, msg.PrevOpID)
		b = appendU64(b, msg.CommitIndex)
		b = appendU64(b, msg.ReadSeq)
		b = appendIDs(b, msg.Route)
		b = appendIDs(b, msg.ReturnPath)
		b = appendU32(b, uint32(len(msg.Entries)))
		for i := range msg.Entries {
			b = appendLogEntry(b, &msg.Entries[i])
		}
	case *AppendEntriesResp:
		b = append(b, uint8(MsgAppendEntriesResp))
		b = appendU64(b, msg.Term)
		b = appendStr(b, string(msg.From))
		b = appendBool(b, msg.Success)
		b = appendU64(b, msg.MatchIndex)
		b = appendU64(b, msg.LastIndex)
		b = appendU64(b, msg.ReadSeq)
		b = appendIDs(b, msg.Route)
	case *RequestVoteReq:
		b = append(b, uint8(MsgRequestVoteReq))
		b = appendU64(b, msg.Term)
		b = appendStr(b, string(msg.Candidate))
		b = appendOpID(b, msg.LastOpID)
		b = append(b, uint8(msg.Kind))
		b = appendOpID(b, msg.Snapshot)
	case *RequestVoteResp:
		b = append(b, uint8(MsgRequestVoteResp))
		b = appendU64(b, msg.Term)
		b = appendStr(b, string(msg.From))
		b = appendBool(b, msg.Granted)
		b = append(b, uint8(msg.Kind))
		b = appendStr(b, msg.Reason)
		b = appendStr(b, string(msg.LastLeaderRegion))
		b = appendU64(b, msg.LastLeaderTerm)
	case *MockElectionResult:
		b = append(b, uint8(MsgMockElectionResult))
		b = appendU64(b, msg.Term)
		b = appendStr(b, string(msg.From))
		b = appendBool(b, msg.Success)
		b = appendStr(b, msg.Reason)
	case *StartElection:
		b = append(b, uint8(MsgStartElection))
		b = appendU64(b, msg.Term)
		b = appendStr(b, string(msg.From))
		b = appendBool(b, msg.Mock)
		b = appendOpID(b, msg.Snapshot)
	case *InstallSnapshotReq:
		b = append(b, uint8(MsgInstallSnapshotReq))
		b = appendU64(b, msg.Term)
		b = appendStr(b, string(msg.LeaderID))
		b = appendOpID(b, msg.Anchor)
		b = appendStr(b, msg.GTIDSet)
		b = appendBytes(b, msg.Config)
		b = appendU64(b, msg.Total)
		b = appendU64(b, msg.Offset)
		b = appendBytes(b, msg.Chunk)
		b = appendBool(b, msg.Done)
	case *InstallSnapshotResp:
		b = append(b, uint8(MsgInstallSnapshotResp))
		b = appendU64(b, msg.Term)
		b = appendStr(b, string(msg.From))
		b = appendBool(b, msg.Success)
		b = appendU64(b, msg.NextOffset)
		b = appendBool(b, msg.Installed)
	case *ShardEnvelope:
		b = append(b, uint8(MsgShardEnvelope))
		b = appendU32(b, uint32(msg.Shard))
		b = appendBytes(b, msg.Inner)
	case *CoalescedHeartbeat:
		b = append(b, uint8(MsgCoalescedHeartbeat))
		b = appendU32(b, uint32(len(msg.Items)))
		for _, it := range msg.Items {
			b = appendU32(b, uint32(it.Shard))
			b = appendBytes(b, it.Req)
		}
	default:
		return dst, fmt.Errorf("wire: unknown message type %T", m)
	}
	return b, nil
}

// Intern table: decoding a node ID or GTID source returns a shared string
// instead of a fresh one per field. It is direct-mapped: a slot keeps the
// last string hashed to it and a collision replaces it, so the table is
// bounded (internSlots strings of at most internMaxLen bytes) whatever
// peers send, and a lookup is one atomic load and a compare.
const (
	internSlots  = 1024
	internMaxLen = 64
)

var internTable [internSlots]atomic.Pointer[string]

func intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if len(b) > internMaxLen {
		return string(b)
	}
	h := uint32(2166136261) // FNV-1a
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	slot := &internTable[h&(internSlots-1)]
	if p := slot.Load(); p != nil && *p == string(b) {
		return *p
	}
	s := string(b)
	slot.Store(&s)
	return s
}

type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = errors.New("wire: " + what)
	}
}

// take consumes n bytes, or fails and returns nil when fewer remain.
func (d *decoder) take(n int, what string) []byte {
	if d.err != nil || len(d.buf) < n {
		d.fail("truncated " + what)
		return nil
	}
	v := d.buf[:n:n]
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) u8() uint8 {
	if b := d.take(1, "u8"); b != nil {
		return b[0]
	}
	return 0
}

// bool accepts only the two bytes the encoder writes, so a decoded frame
// re-encodes byte for byte.
func (d *decoder) bool() bool {
	v := d.u8()
	if v > 1 {
		d.fail(fmt.Sprintf("bool byte %d", v))
	}
	return v == 1
}

func (d *decoder) u32() uint32 {
	if b := d.take(4, "u32"); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

func (d *decoder) u64() uint64 {
	if b := d.take(8, "u64"); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

func (d *decoder) opid() opid.OpID {
	t := d.u64()
	i := d.u64()
	return opid.OpID{Term: t, Index: i}
}

// bytes returns a length-prefixed field as a sub-slice of the frame,
// capacity-capped so that appending to it can never write into the
// frame. Empty fields decode as nil.
func (d *decoder) bytes() []byte {
	n := d.u32()
	if d.err != nil || n == 0 {
		return nil
	}
	if uint32(len(d.buf)) < n {
		d.fail("truncated bytes body")
		return nil
	}
	v := d.buf[:n:n]
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) str() string { return string(d.bytes()) }

// id decodes a node ID, GTID source or region through the intern table.
func (d *decoder) id() string { return intern(d.bytes()) }

// count reads an element count and rejects one the remaining bytes cannot
// hold at minSize bytes per element, so a corrupt count never sizes an
// allocation.
func (d *decoder) count(minSize int, what string) int {
	n := d.u32()
	if d.err == nil && uint64(n)*uint64(minSize) > uint64(len(d.buf)) {
		d.fail(fmt.Sprintf("%s count %d too large for %d bytes", what, n, len(d.buf)))
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

func (d *decoder) nodeList() []NodeID {
	n := d.count(4, "node list")
	if n == 0 {
		return nil
	}
	out := make([]NodeID, n)
	for i := range out {
		out[i] = NodeID(d.id())
	}
	return out
}

// minEntrySize is the encoded size of an entry with an empty GTID source
// and no payload.
const minEntrySize = 35

func decodeLogEntry(d *decoder, le *LogEntry) {
	le.OpID = d.opid()
	le.Kind = EntryType(d.u8())
	le.HasGTID = d.bool()
	le.GTID.Source = gtid.UUID(d.id())
	le.GTID.ID = int64(d.u64())
	le.IsProxy = d.bool()
	if le.IsProxy {
		le.ProxyLen = d.u32() // length only; payload stays nil
	} else {
		le.Payload = d.bytes()
	}
}

// EncodeConfig serializes a Config for storage in an EntryConfig payload.
func EncodeConfig(c Config) []byte {
	n := 4
	for _, m := range c.Members {
		n += strSize(string(m.ID)) + strSize(string(m.Region)) + 2
	}
	b := appendU32(make([]byte, 0, n), uint32(len(c.Members)))
	for _, m := range c.Members {
		b = appendStr(b, string(m.ID))
		b = appendStr(b, string(m.Region))
		b = appendBool(b, m.Voter)
		b = appendBool(b, m.Witness)
	}
	return b
}

// DecodeConfig parses an EntryConfig payload.
func DecodeConfig(data []byte) (Config, error) {
	d := &decoder{buf: data}
	n := d.count(4+4+1+1, "config member")
	c := Config{Members: make([]Member, n)}
	for i := range c.Members {
		m := &c.Members[i]
		m.ID = NodeID(d.id())
		m.Region = Region(d.id())
		m.Voter = d.bool()
		m.Witness = d.bool()
	}
	if d.err != nil {
		return Config{}, d.err
	}
	if len(d.buf) != 0 {
		return Config{}, fmt.Errorf("wire: %d trailing config bytes", len(d.buf))
	}
	return c, nil
}

// Unmarshal parses a message produced by Marshal. It decodes in place:
// byte fields (entry payloads, ShardEnvelope.Inner, heartbeat Req,
// snapshot Chunk and Config) are capacity-capped sub-slices of data, so
// data must not be written again once it has been decoded — a received
// frame is immutable, and its sub-slices go on to become log-entry
// payloads. Unmarshal never writes into data.
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
		msg.LeaderID = NodeID(d.id())
		msg.PrevOpID = d.opid()
		msg.CommitIndex = d.u64()
		msg.ReadSeq = d.u64()
		msg.Route = d.nodeList()
		msg.ReturnPath = d.nodeList()
		if n := d.count(minEntrySize, "entry"); n > 0 {
			msg.Entries = make([]LogEntry, n)
			for i := range msg.Entries {
				decodeLogEntry(d, &msg.Entries[i])
			}
		}
		m = msg
	case MsgAppendEntriesResp:
		msg := &AppendEntriesResp{}
		msg.Term = d.u64()
		msg.From = NodeID(d.id())
		msg.Success = d.bool()
		msg.MatchIndex = d.u64()
		msg.LastIndex = d.u64()
		msg.ReadSeq = d.u64()
		msg.Route = d.nodeList()
		m = msg
	case MsgRequestVoteReq:
		msg := &RequestVoteReq{}
		msg.Term = d.u64()
		msg.Candidate = NodeID(d.id())
		msg.LastOpID = d.opid()
		msg.Kind = VoteKind(d.u8())
		msg.Snapshot = d.opid()
		m = msg
	case MsgRequestVoteResp:
		msg := &RequestVoteResp{}
		msg.Term = d.u64()
		msg.From = NodeID(d.id())
		msg.Granted = d.bool()
		msg.Kind = VoteKind(d.u8())
		msg.Reason = d.str()
		msg.LastLeaderRegion = Region(d.id())
		msg.LastLeaderTerm = d.u64()
		m = msg
	case MsgMockElectionResult:
		msg := &MockElectionResult{}
		msg.Term = d.u64()
		msg.From = NodeID(d.id())
		msg.Success = d.bool()
		msg.Reason = d.str()
		m = msg
	case MsgStartElection:
		msg := &StartElection{}
		msg.Term = d.u64()
		msg.From = NodeID(d.id())
		msg.Mock = d.bool()
		msg.Snapshot = d.opid()
		m = msg
	case MsgInstallSnapshotReq:
		msg := &InstallSnapshotReq{}
		msg.Term = d.u64()
		msg.LeaderID = NodeID(d.id())
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
		msg.From = NodeID(d.id())
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
		if n := d.count(4+4, "coalesced heartbeat"); n > 0 {
			msg.Items = make([]ShardHeartbeat, n)
			for i := range msg.Items {
				msg.Items[i].Shard = ShardID(d.u32())
				msg.Items[i].Req = d.bytes()
			}
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
