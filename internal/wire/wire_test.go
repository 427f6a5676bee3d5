package wire

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"myraft/internal/gtid"
	"myraft/internal/opid"
)

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	data, err := Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestAppendEntriesReqRoundTrip(t *testing.T) {
	m := &AppendEntriesReq{
		Term:     7,
		LeaderID: "mysql-1",
		PrevOpID: opid.OpID{Term: 6, Index: 41},
		Entries: []LogEntry{
			{
				OpID:    opid.OpID{Term: 7, Index: 42},
				Kind:    1,
				HasGTID: true,
				GTID:    gtid.GTID{Source: "uuid-1", ID: 9},
				Payload: []byte("row data"),
			},
			{OpID: opid.OpID{Term: 7, Index: 43}, Kind: 2},
		},
		CommitIndex: 41,
		ReadSeq:     17,
		Route:       []NodeID{"lt-1", "mysql-2"},
		ReturnPath:  []NodeID{"mysql-1"},
	}
	got := roundTrip(t, m).(*AppendEntriesReq)
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", m, got)
	}
}

func TestProxyEntryDropsPayload(t *testing.T) {
	full := &AppendEntriesReq{
		Term:     1,
		LeaderID: "l",
		Entries: []LogEntry{{
			OpID:    opid.OpID{Term: 1, Index: 1},
			Payload: bytes.Repeat([]byte("x"), 500),
		}},
		Route: []NodeID{"f"},
	}
	proxy := &AppendEntriesReq{
		Term:     1,
		LeaderID: "l",
		Entries: []LogEntry{{
			OpID:    opid.OpID{Term: 1, Index: 1},
			Payload: bytes.Repeat([]byte("x"), 500),
			IsProxy: true,
		}},
		Route: []NodeID{"f"},
	}
	fullBytes, err := Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	proxyBytes, err := Marshal(proxy)
	if err != nil {
		t.Fatal(err)
	}
	if len(proxyBytes) >= len(fullBytes)-400 {
		t.Fatalf("PROXY_OP not smaller: full=%d proxy=%d", len(fullBytes), len(proxyBytes))
	}
	got, err := Unmarshal(proxyBytes)
	if err != nil {
		t.Fatal(err)
	}
	e := got.(*AppendEntriesReq).Entries[0]
	if !e.IsProxy || e.Payload != nil {
		t.Fatalf("proxy entry decoded wrong: %+v", e)
	}
}

func TestAppendEntriesRespRoundTrip(t *testing.T) {
	m := &AppendEntriesResp{Term: 3, From: "f1", Success: true, MatchIndex: 10, LastIndex: 12, ReadSeq: 17, Route: []NodeID{"p", "l"}}
	got := roundTrip(t, m).(*AppendEntriesResp)
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("mismatch: %+v vs %+v", m, got)
	}
}

func TestRequestVoteRoundTrip(t *testing.T) {
	req := &RequestVoteReq{Term: 5, Candidate: "c", LastOpID: opid.OpID{Term: 4, Index: 99}, Kind: VoteMock, Snapshot: opid.OpID{Term: 4, Index: 98}}
	gotReq := roundTrip(t, req).(*RequestVoteReq)
	if !reflect.DeepEqual(req, gotReq) {
		t.Fatalf("req mismatch: %+v vs %+v", req, gotReq)
	}
	resp := &RequestVoteResp{Term: 5, From: "v", Granted: false, Kind: VotePre, Reason: "lagging"}
	gotResp := roundTrip(t, resp).(*RequestVoteResp)
	if !reflect.DeepEqual(resp, gotResp) {
		t.Fatalf("resp mismatch: %+v vs %+v", resp, gotResp)
	}
}

func TestStartElectionRoundTrip(t *testing.T) {
	m := &StartElection{Term: 9, From: "leader", Mock: true, Snapshot: opid.OpID{Term: 9, Index: 1234}}
	got := roundTrip(t, m).(*StartElection)
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("mismatch: %+v vs %+v", m, got)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Fatal("empty unmarshal succeeded")
	}
	if _, err := Unmarshal([]byte{99}); err == nil {
		t.Fatal("unknown tag succeeded")
	}
	data, _ := Marshal(&RequestVoteReq{Term: 1, Candidate: "c"})
	if _, err := Unmarshal(data[:len(data)-3]); err == nil {
		t.Fatal("truncated unmarshal succeeded")
	}
	if _, err := Unmarshal(append(data, 0xff)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestConfigRoundTrip(t *testing.T) {
	c := Config{Members: []Member{
		{ID: "mysql-1", Region: "prn", Voter: true},
		{ID: "lt-1", Region: "prn", Voter: true, Witness: true},
		{ID: "learner-1", Region: "ftw", Voter: false},
	}}
	got, err := DecodeConfig(EncodeConfig(c))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c, got) {
		t.Fatalf("mismatch: %+v vs %+v", c, got)
	}
}

func TestConfigDecodeErrors(t *testing.T) {
	if _, err := DecodeConfig(nil); err == nil {
		t.Fatal("nil config decoded")
	}
	enc := EncodeConfig(Config{Members: []Member{{ID: "a"}}})
	if _, err := DecodeConfig(enc[:len(enc)-2]); err == nil {
		t.Fatal("truncated config decoded")
	}
	if _, err := DecodeConfig(append(enc, 0)); err == nil {
		t.Fatal("trailing config bytes accepted")
	}
}

func TestConfigHelpers(t *testing.T) {
	c := Config{Members: []Member{
		{ID: "m1", Region: "r1", Voter: true},
		{ID: "m2", Region: "r1", Voter: true, Witness: true},
		{ID: "m3", Region: "r2", Voter: true},
		{ID: "l1", Region: "r3", Voter: false},
	}}
	if len(c.Voters()) != 3 {
		t.Fatalf("Voters = %v", c.Voters())
	}
	regions := c.Regions()
	if len(regions) != 2 || regions[0] != "r1" || regions[1] != "r2" {
		t.Fatalf("Regions = %v", regions)
	}
	if len(c.VotersInRegion("r1")) != 2 {
		t.Fatalf("VotersInRegion(r1) = %v", c.VotersInRegion("r1"))
	}
	if _, ok := c.Find("m3"); !ok {
		t.Fatal("Find(m3) failed")
	}
	if _, ok := c.Find("nope"); ok {
		t.Fatal("Find(nope) succeeded")
	}
	clone := c.Clone()
	clone.Members[0].ID = "mutated"
	if c.Members[0].ID != "m1" {
		t.Fatal("Clone aliases original")
	}
}

func TestMessageRoundTripProperty(t *testing.T) {
	f := func(term uint64, from string, success bool, match, last uint64) bool {
		m := &AppendEntriesResp{Term: term, From: NodeID(from), Success: success, MatchIndex: match, LastIndex: last}
		data, err := Marshal(m)
		if err != nil {
			return false
		}
		got, err := Unmarshal(data)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEntryPayloadRoundTripProperty(t *testing.T) {
	f := func(payload []byte, term, index uint64, gid int64) bool {
		m := &AppendEntriesReq{
			Term:     term,
			LeaderID: "l",
			Entries: []LogEntry{{
				OpID:    opid.OpID{Term: term, Index: index},
				HasGTID: gid > 0,
				GTID:    gtid.GTID{Source: "s", ID: gid},
				Payload: payload,
			}},
		}
		if gid <= 0 {
			m.Entries[0].GTID = gtid.GTID{Source: "s", ID: gid}
		}
		data, err := Marshal(m)
		if err != nil {
			return false
		}
		got, err := Unmarshal(data)
		if err != nil {
			return false
		}
		ge := got.(*AppendEntriesReq).Entries[0]
		return bytes.Equal(ge.Payload, payload) || (payload == nil && len(ge.Payload) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMockElectionResultRoundTrip(t *testing.T) {
	m := &MockElectionResult{Term: 4, From: "target", Success: true, Reason: "quorum ok"}
	got := roundTrip(t, m).(*MockElectionResult)
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("mismatch: %+v vs %+v", m, got)
	}
}

func TestVoteRespCarriesLeaderHistory(t *testing.T) {
	m := &RequestVoteResp{Term: 8, From: "v", Granted: true, LastLeaderRegion: "prn", LastLeaderTerm: 7}
	got := roundTrip(t, m).(*RequestVoteResp)
	if got.LastLeaderRegion != "prn" || got.LastLeaderTerm != 7 {
		t.Fatalf("history lost: %+v", got)
	}
}

// Property: arbitrary bytes never panic the decoder; they either parse or
// error.
func TestUnmarshalNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("panic on %x: %v", data, r)
			}
		}()
		_, _ = Unmarshal(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: flipping any single byte of a valid message either fails to
// parse, or parses to a structurally valid message (no crash); it must
// never be mistaken for the original when the type tag changed.
func TestUnmarshalBitFlipRobust(t *testing.T) {
	orig := &AppendEntriesReq{
		Term:     3,
		LeaderID: "leader-1",
		PrevOpID: opid.OpID{Term: 2, Index: 9},
		Entries: []LogEntry{{
			OpID:    opid.OpID{Term: 3, Index: 10},
			HasGTID: true,
			GTID:    gtid.GTID{Source: "src", ID: 4},
			Payload: []byte("payload-bytes"),
		}},
		CommitIndex: 9,
	}
	data, err := Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xff
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic flipping byte %d: %v", i, r)
				}
			}()
			_, _ = Unmarshal(mut)
		}()
	}
}

// Property: DecodeConfig never panics on arbitrary bytes.
func TestDecodeConfigNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("panic on %x: %v", data, r)
			}
		}()
		_, _ = DecodeConfig(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestInstallSnapshotRoundTrip(t *testing.T) {
	req := &InstallSnapshotReq{
		Term:     9,
		LeaderID: "mysql-0",
		Anchor:   opid.OpID{Term: 8, Index: 5000},
		GTIDSet:  "uuid-1:1-5000",
		Config:   EncodeConfig(Config{Members: []Member{{ID: "mysql-0", Region: "r1", Voter: true}}}),
		Total:    1 << 20,
		Offset:   256 << 10,
		Chunk:    bytes.Repeat([]byte("c"), 1024),
		Done:     false,
	}
	gotReq := roundTrip(t, req).(*InstallSnapshotReq)
	if !reflect.DeepEqual(req, gotReq) {
		t.Fatalf("req round trip mismatch:\n%+v\n%+v", req, gotReq)
	}

	resp := &InstallSnapshotResp{
		Term:       9,
		From:       "mysql-2",
		Success:    true,
		NextOffset: 257 << 10,
		Installed:  false,
	}
	gotResp := roundTrip(t, resp).(*InstallSnapshotResp)
	if !reflect.DeepEqual(resp, gotResp) {
		t.Fatalf("resp round trip mismatch:\n%+v\n%+v", resp, gotResp)
	}
}

func TestShardEnvelopeRoundTrip(t *testing.T) {
	inner, err := Marshal(&RequestVoteReq{Term: 3, Candidate: "mysql-1", LastOpID: opid.OpID{Term: 2, Index: 7}})
	if err != nil {
		t.Fatal(err)
	}
	m := &ShardEnvelope{Shard: 12, Inner: inner}
	got := roundTrip(t, m).(*ShardEnvelope)
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("mismatch:\n%+v\n%+v", m, got)
	}
	innerMsg, err := Unmarshal(got.Inner)
	if err != nil {
		t.Fatal(err)
	}
	if innerMsg.(*RequestVoteReq).Candidate != "mysql-1" {
		t.Fatalf("inner message corrupted: %+v", innerMsg)
	}
	for _, env := range []*ShardEnvelope{m, {Shard: 1}} {
		data, err := Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		if env.EncodedSize() != len(data) {
			t.Fatalf("EncodedSize = %d, Marshal wrote %d bytes", env.EncodedSize(), len(data))
		}
	}
}

func TestCoalescedHeartbeatRoundTrip(t *testing.T) {
	mkReq := func(shard uint64) []byte {
		data, err := Marshal(&AppendEntriesReq{Term: shard, LeaderID: "n0", CommitIndex: 10 * shard, ReadSeq: shard})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	m := &CoalescedHeartbeat{Items: []ShardHeartbeat{
		{Shard: 0, Req: mkReq(1)},
		{Shard: 3, Req: mkReq(2)},
		{Shard: 7, Req: mkReq(3)},
	}}
	got := roundTrip(t, m).(*CoalescedHeartbeat)
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("mismatch:\n%+v\n%+v", m, got)
	}
	// Empty coalesced heartbeat (no buffered shards) must survive too.
	empty := roundTrip(t, &CoalescedHeartbeat{}).(*CoalescedHeartbeat)
	if len(empty.Items) != 0 {
		t.Fatalf("empty coalesced heartbeat gained items: %+v", empty)
	}
	for _, hb := range []*CoalescedHeartbeat{m, {}} {
		data, err := Marshal(hb)
		if err != nil {
			t.Fatal(err)
		}
		if hb.EncodedSize() != len(data) {
			t.Fatalf("EncodedSize = %d, Marshal wrote %d bytes", hb.EncodedSize(), len(data))
		}
	}
}

func TestInstallSnapshotFinalChunk(t *testing.T) {
	// Empty trailing chunk with Done=true (pure "install now" signal) and
	// empty GTID set / config must survive the codec.
	req := &InstallSnapshotReq{
		Term:     2,
		LeaderID: "l",
		Anchor:   opid.OpID{Term: 2, Index: 7},
		Total:    0,
		Offset:   0,
		Done:     true,
	}
	got := roundTrip(t, req).(*InstallSnapshotReq)
	if !reflect.DeepEqual(req, got) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", req, got)
	}
	if !got.Done {
		t.Fatal("Done flag lost")
	}
}
