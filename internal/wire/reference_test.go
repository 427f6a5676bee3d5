package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"myraft/internal/gtid"
	"myraft/internal/opid"
)

// refMarshal is the append-grown encoder Marshal replaced, kept as the
// reference the sized encoder must match byte for byte: the wire format
// did not change when encoding started to size its buffer first.
func refMarshal(m Message) ([]byte, error) {
	e := &refEncoder{}
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
			le := &msg.Entries[i]
			e.opid(le.OpID)
			e.u8(uint8(le.Kind))
			e.bool(le.HasGTID)
			e.str(string(le.GTID.Source))
			e.u64(uint64(le.GTID.ID))
			e.bool(le.IsProxy)
			if le.IsProxy {
				e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(len(le.Payload)))
			} else {
				e.bytes(le.Payload)
			}
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

type refEncoder struct{ buf []byte }

func (e *refEncoder) u8(v uint8) { e.buf = append(e.buf, v) }
func (e *refEncoder) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *refEncoder) u32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }
func (e *refEncoder) u64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }
func (e *refEncoder) opid(o opid.OpID) {
	e.u64(o.Term)
	e.u64(o.Index)
}
func (e *refEncoder) bytes(b []byte) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(len(b)))
	e.buf = append(e.buf, b...)
}
func (e *refEncoder) str(s string) { e.bytes([]byte(s)) }
func (e *refEncoder) nodeList(ids []NodeID) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(len(ids)))
	for _, id := range ids {
		e.str(string(id))
	}
}

// sampleMessages is one or more messages of every type, with and without
// optional fields: PROXY_OP entries, proxied routes, coalesced
// heartbeats, a snapshot chunk, empty collections.
func sampleMessages(t testing.TB) []Message {
	t.Helper()
	hb := func(term uint64) []byte {
		data, err := Marshal(&AppendEntriesReq{Term: term, LeaderID: "mysql-0", CommitIndex: 10 * term, ReadSeq: term, ReturnPath: []NodeID{"mysql-0"}})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	entry := func(i uint64, proxy bool) LogEntry {
		e := LogEntry{
			OpID:    opid.OpID{Term: 3, Index: i},
			Kind:    EntryType(i % 4),
			HasGTID: i%2 == 0,
			GTID:    gtid.GTID{Source: "3e11fa47-71ca-11e1-9e33-c80aa9429562", ID: int64(i)},
			Payload: bytes.Repeat([]byte{byte(i)}, int(i*7)),
			IsProxy: proxy,
		}
		if proxy {
			e.Payload = nil
		}
		return e
	}
	batch := &AppendEntriesReq{Term: 3, LeaderID: "mysql-0", PrevOpID: opid.OpID{Term: 2, Index: 40}, CommitIndex: 39, ReadSeq: 12, ReturnPath: []NodeID{"mysql-0"}}
	proxied := &AppendEntriesReq{Term: 3, LeaderID: "mysql-0", PrevOpID: opid.OpID{Term: 3, Index: 44}, CommitIndex: 43, ReadSeq: 12,
		Route: []NodeID{"lt-1-0", "mysql-1"}, ReturnPath: []NodeID{"mysql-0"}}
	for i := uint64(41); i <= 44; i++ {
		batch.Entries = append(batch.Entries, entry(i, false))
		proxied.Entries = append(proxied.Entries, entry(i+4, true))
	}
	inner := hb(3)
	return []Message{
		batch,
		proxied,
		&AppendEntriesReq{Term: 1, LeaderID: "l"},
		&AppendEntriesResp{Term: 3, From: "mysql-1", Success: true, MatchIndex: 44, LastIndex: 44, ReadSeq: 12, Route: []NodeID{"lt-1-0", "mysql-0"}},
		&AppendEntriesResp{Term: 3, From: "mysql-2", LastIndex: 7},
		&RequestVoteReq{Term: 5, Candidate: "mysql-1", LastOpID: opid.OpID{Term: 4, Index: 99}, Kind: VoteMock, Snapshot: opid.OpID{Term: 4, Index: 98}},
		&RequestVoteResp{Term: 5, From: "mysql-2", Granted: true, Kind: VotePre, Reason: "ok", LastLeaderRegion: "region-0", LastLeaderTerm: 4},
		&MockElectionResult{Term: 4, From: "mysql-1", Success: false, Reason: "lagging"},
		&StartElection{Term: 9, From: "mysql-0", Mock: true, Snapshot: opid.OpID{Term: 9, Index: 1234}},
		&InstallSnapshotReq{Term: 9, LeaderID: "mysql-0", Anchor: opid.OpID{Term: 8, Index: 5000}, GTIDSet: "uuid-1:1-5000",
			Config: EncodeConfig(Config{Members: []Member{{ID: "mysql-0", Region: "r1", Voter: true}}}),
			Total:  1 << 20, Offset: 256 << 10, Chunk: bytes.Repeat([]byte("c"), 300), Done: true},
		&InstallSnapshotResp{Term: 9, From: "mysql-2", Success: true, NextOffset: 257 << 10, Installed: true},
		&ShardEnvelope{Shard: 12, Inner: inner},
		&CoalescedHeartbeat{Items: []ShardHeartbeat{{Shard: 0, Req: hb(1)}, {Shard: 7, Req: hb(2)}}},
		&CoalescedHeartbeat{},
	}
}

// Frames are byte-identical to the reference encoder, and EncodedSize is
// the length Marshal writes, for every message type.
func TestMarshalMatchesReferenceEncoder(t *testing.T) {
	for _, m := range sampleMessages(t) {
		got, err := Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refMarshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%T: frame differs from the reference encoder:\n got %x\nwant %x", m, got, want)
		}
		if m.EncodedSize() != len(got) || cap(got) != len(got) {
			t.Fatalf("%T: EncodedSize %d, Marshal wrote %d bytes into cap %d", m, m.EncodedSize(), len(got), cap(got))
		}
		// AppendMarshal after a prefix writes the same bytes after it.
		prefixed, err := AppendMarshal([]byte("hdr"), m)
		if err != nil || !bytes.Equal(prefixed[3:], want) || string(prefixed[:3]) != "hdr" {
			t.Fatalf("%T: AppendMarshal = %x, %v", m, prefixed, err)
		}
	}
}

// Property: random AppendEntries batches (the hot frame) encode as the
// reference does.
func TestMarshalMatchesReferenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		str := func() string { return string(bytes.Repeat([]byte{'a' + byte(rng.Intn(26))}, rng.Intn(40))) }
		m := &AppendEntriesReq{Term: rng.Uint64(), LeaderID: NodeID(str()), PrevOpID: opid.OpID{Term: rng.Uint64(), Index: rng.Uint64()},
			CommitIndex: rng.Uint64(), ReadSeq: rng.Uint64()}
		for i := rng.Intn(3); i > 0; i-- {
			m.Route = append(m.Route, NodeID(str()))
			m.ReturnPath = append(m.ReturnPath, NodeID(str()))
		}
		for i := rng.Intn(20); i > 0; i-- {
			p := make([]byte, rng.Intn(300))
			rng.Read(p)
			m.Entries = append(m.Entries, LogEntry{OpID: opid.OpID{Term: rng.Uint64(), Index: rng.Uint64()}, Kind: EntryType(rng.Intn(256)),
				HasGTID: rng.Intn(2) == 0, GTID: gtid.GTID{Source: gtid.UUID(str()), ID: rng.Int63()}, Payload: p, IsProxy: rng.Intn(4) == 0})
		}
		got, err1 := Marshal(m)
		want, err2 := refMarshal(m)
		return err1 == nil && err2 == nil && bytes.Equal(got, want) && m.EncodedSize() == len(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
