package transport

import (
	"testing"
	"time"

	"myraft/internal/opid"
	"myraft/internal/wire"
)

func testConfig() Config {
	return Config{
		IntraRegion: 100 * time.Microsecond,
		CrossRegion: 2 * time.Millisecond,
		Loopback:    time.Microsecond,
	}
}

func vote(term uint64, from string) *wire.RequestVoteResp {
	return &wire.RequestVoteResp{Term: term, From: wire.NodeID(from), Granted: true}
}

func recvOne(t *testing.T, ep *Endpoint, within time.Duration) Envelope {
	t.Helper()
	select {
	case env := <-ep.Recv():
		return env
	case <-time.After(within):
		t.Fatalf("no message within %v", within)
		return Envelope{}
	}
}

func TestDeliverBasic(t *testing.T) {
	n := New(testConfig(), nil)
	defer n.Close()
	a := n.Register("a", "r1")
	b := n.Register("b", "r1")
	if err := a.Send("b", vote(1, "a")); err != nil {
		t.Fatal(err)
	}
	env := recvOne(t, b, time.Second)
	if env.From != "a" || env.To != "b" {
		t.Fatalf("env = %+v", env)
	}
	got := env.Msg.(*wire.RequestVoteResp)
	if got.Term != 1 || got.From != "a" {
		t.Fatalf("msg = %+v", got)
	}
	if env.Size == 0 {
		t.Fatal("size not metered")
	}
}

func TestDeliveryIsACopy(t *testing.T) {
	n := New(testConfig(), nil)
	defer n.Close()
	a := n.Register("a", "r1")
	b := n.Register("b", "r1")
	msg := &wire.AppendEntriesReq{
		Term:     1,
		LeaderID: "a",
		Entries:  []wire.LogEntry{{OpID: opid.OpID{Term: 1, Index: 1}, Payload: []byte("orig")}},
	}
	a.Send("b", msg)
	msg.Entries[0].Payload[0] = 'X' // mutate after send
	env := recvOne(t, b, time.Second)
	got := env.Msg.(*wire.AppendEntriesReq)
	if string(got.Entries[0].Payload) != "orig" {
		t.Fatalf("delivered message shares memory with sender: %q", got.Entries[0].Payload)
	}
}

// Shard frames skip the codec in Send: their metered size must still be
// what the codec would have written, and the receiver gets the frame the
// sender handed over, not a copy (nobody writes a frame once sent, see
// Send's ownership rule).
func TestShardFramesMeteredAndHandedOver(t *testing.T) {
	inner, err := wire.Marshal(&wire.AppendEntriesReq{Term: 4, LeaderID: "a", ReadSeq: 9})
	if err != nil {
		t.Fatal(err)
	}
	other, err := wire.Marshal(vote(7, "a"))
	if err != nil {
		t.Fatal(err)
	}
	frames := []wire.Message{
		&wire.ShardEnvelope{Shard: 5, Inner: inner},
		&wire.CoalescedHeartbeat{Items: []wire.ShardHeartbeat{{Shard: 1, Req: inner}, {Shard: 6, Req: other}}},
	}
	for _, msg := range frames {
		n := New(testConfig(), nil)
		a := n.Register("a", "r1")
		b := n.Register("b", "r2")
		data, err := wire.Marshal(msg)
		if err != nil {
			t.Fatal(err)
		}
		want := int64(len(data))
		if err := a.Send("b", msg); err != nil {
			t.Fatal(err)
		}
		got := recvOne(t, b, time.Second)
		if int64(got.Size) != want {
			t.Fatalf("%T: Envelope.Size = %d, wire.Marshal wrote %d bytes", msg, got.Size, want)
		}
		if got.Msg != msg {
			t.Fatalf("%T: receiver got a different frame: %+v", msg, got.Msg)
		}
		if again, _ := wire.Marshal(got.Msg); string(again) != string(data) {
			t.Fatalf("%T: delivered frame changed", msg)
		}
		st := n.Stats()
		if link := st.ByRegionPair[[2]wire.Region{"r1", "r2"}]; link.Bytes != want || link.Messages != 1 {
			t.Fatalf("%T: link counters = %+v, want 1 message of %d bytes", msg, link, want)
		}
		if st.SentByNode["a"] != want || st.TotalBytes() != want {
			t.Fatalf("%T: sent-by-node %d / total %d, want %d", msg, st.SentByNode["a"], st.TotalBytes(), want)
		}
		n.Close()
	}
}

func TestFIFOPerLink(t *testing.T) {
	n := New(testConfig(), nil)
	defer n.Close()
	a := n.Register("a", "r1")
	b := n.Register("b", "r2")
	for i := uint64(1); i <= 50; i++ {
		a.Send("b", vote(i, "a"))
	}
	for i := uint64(1); i <= 50; i++ {
		env := recvOne(t, b, 2*time.Second)
		if got := env.Msg.(*wire.RequestVoteResp).Term; got != i {
			t.Fatalf("out of order: got term %d, want %d", got, i)
		}
	}
}

func TestCrossRegionSlowerThanIntra(t *testing.T) {
	cfg := Config{IntraRegion: 200 * time.Microsecond, CrossRegion: 20 * time.Millisecond}
	n := New(cfg, nil)
	defer n.Close()
	a := n.Register("a", "r1")
	n.Register("b", "r1")
	n.Register("c", "r2")

	start := time.Now()
	a.Send("b", vote(1, "a"))
	bEp := n.endpoints["b"]
	recvOne(t, bEp, time.Second)
	intra := time.Since(start)

	start = time.Now()
	a.Send("c", vote(1, "a"))
	cEp := n.endpoints["c"]
	recvOne(t, cEp, time.Second)
	cross := time.Since(start)

	if cross < 20*time.Millisecond {
		t.Fatalf("cross-region delivered in %v, faster than configured latency", cross)
	}
	if intra >= cross {
		t.Fatalf("intra (%v) not faster than cross (%v)", intra, cross)
	}
}

func TestPartitionDropsAndHealRestores(t *testing.T) {
	n := New(testConfig(), nil)
	defer n.Close()
	a := n.Register("a", "r1")
	b := n.Register("b", "r1")
	n.Partition("a", "b")
	a.Send("b", vote(1, "a"))
	select {
	case <-b.Recv():
		t.Fatal("message crossed partition")
	case <-time.After(20 * time.Millisecond):
	}
	if n.Stats().Dropped == 0 {
		t.Fatal("drop not counted")
	}
	n.Heal("a", "b")
	a.Send("b", vote(2, "a"))
	recvOne(t, b, time.Second)
}

func TestDownNodeNeitherSendsNorReceives(t *testing.T) {
	n := New(testConfig(), nil)
	defer n.Close()
	a := n.Register("a", "r1")
	b := n.Register("b", "r1")
	n.SetNodeDown("b", true)
	a.Send("b", vote(1, "a"))
	select {
	case <-b.Recv():
		t.Fatal("down node received")
	case <-time.After(20 * time.Millisecond):
	}
	n.SetNodeDown("b", false)
	n.SetNodeDown("a", true)
	a.Send("b", vote(2, "a"))
	select {
	case <-b.Recv():
		t.Fatal("down node sent")
	case <-time.After(20 * time.Millisecond):
	}
	n.SetNodeDown("a", false)
	a.Send("b", vote(3, "a"))
	recvOne(t, b, time.Second)
}

func TestIsolateRegion(t *testing.T) {
	n := New(testConfig(), nil)
	defer n.Close()
	a := n.Register("a", "r1")
	b := n.Register("b", "r1")
	c := n.Register("c", "r2")
	n.IsolateRegion("r1")
	a.Send("c", vote(1, "a"))
	select {
	case <-c.Recv():
		t.Fatal("message escaped isolated region")
	case <-time.After(20 * time.Millisecond):
	}
	// Intra-region traffic still flows.
	a.Send("b", vote(2, "a"))
	recvOne(t, b, time.Second)
	n.HealAll()
	a.Send("c", vote(3, "a"))
	recvOne(t, c, time.Second)
}

func TestByteAccountingPerRegionPair(t *testing.T) {
	n := New(testConfig(), nil)
	defer n.Close()
	a := n.Register("a", "r1")
	n.Register("b", "r1")
	n.Register("c", "r2")
	a.Send("b", vote(1, "a"))
	a.Send("c", vote(1, "a"))
	a.Send("c", vote(2, "a"))
	time.Sleep(20 * time.Millisecond)
	st := n.Stats()
	intra := st.ByRegionPair[[2]wire.Region{"r1", "r1"}]
	cross := st.ByRegionPair[[2]wire.Region{"r1", "r2"}]
	if intra.Messages != 1 || cross.Messages != 2 {
		t.Fatalf("message counts: intra=%d cross=%d", intra.Messages, cross.Messages)
	}
	if st.CrossRegionBytes() != cross.Bytes {
		t.Fatalf("CrossRegionBytes = %d, want %d", st.CrossRegionBytes(), cross.Bytes)
	}
	if st.TotalBytes() != intra.Bytes+cross.Bytes {
		t.Fatal("TotalBytes mismatch")
	}
	if st.SentByNode["a"] != st.TotalBytes() {
		t.Fatal("SentByNode mismatch")
	}
	n.ResetStats()
	if n.Stats().TotalBytes() != 0 {
		t.Fatal("ResetStats did not zero counters")
	}
}

func TestLinkLatencyOverride(t *testing.T) {
	n := New(testConfig(), nil)
	defer n.Close()
	a := n.Register("a", "r1")
	b := n.Register("b", "r1")
	n.SetLinkLatency("a", "b", 30*time.Millisecond)
	start := time.Now()
	a.Send("b", vote(1, "a"))
	recvOne(t, b, time.Second)
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("override ignored: delivered in %v", d)
	}
	n.ClearLinkLatency("a", "b")
	start = time.Now()
	a.Send("b", vote(2, "a"))
	recvOne(t, b, time.Second)
	if d := time.Since(start); d > 20*time.Millisecond {
		t.Fatalf("override not cleared: delivered in %v", d)
	}
}

func TestReRegisterReplacesEndpoint(t *testing.T) {
	n := New(testConfig(), nil)
	defer n.Close()
	a := n.Register("a", "r1")
	old := n.Register("b", "r1")
	fresh := n.Register("b", "r1") // restart
	a.Send("b", vote(1, "a"))
	recvOne(t, fresh, time.Second)
	select {
	case <-old.Recv():
		t.Fatal("stale endpoint received")
	default:
	}
}

func TestLoopbackDelivery(t *testing.T) {
	n := New(testConfig(), nil)
	defer n.Close()
	a := n.Register("a", "r1")
	a.Send("a", vote(1, "a"))
	recvOne(t, a, time.Second)
}

func TestSendToUnknownNodeDropsSilently(t *testing.T) {
	n := New(testConfig(), nil)
	defer n.Close()
	a := n.Register("a", "r1")
	if err := a.Send("ghost", vote(1, "a")); err != nil {
		t.Fatalf("send to unknown errored: %v", err)
	}
	time.Sleep(10 * time.Millisecond)
	if n.Stats().Dropped == 0 {
		t.Fatal("drop not counted")
	}
}

func TestCloseIsIdempotentAndStopsDelivery(t *testing.T) {
	n := New(testConfig(), nil)
	a := n.Register("a", "r1")
	b := n.Register("b", "r1")
	a.Send("b", vote(1, "a"))
	n.Close()
	n.Close()
	a.Send("b", vote(2, "a")) // no panic after close
	select {
	case <-b.Recv():
		// The pre-close message may or may not have made it; both fine.
	case <-time.After(10 * time.Millisecond):
	}
}

func TestScaleDividesLatencies(t *testing.T) {
	cfg := Config{IntraRegion: time.Millisecond, CrossRegion: 100 * time.Millisecond, Loopback: 10 * time.Microsecond}
	s := cfg.Scale(10)
	if s.IntraRegion != 100*time.Microsecond || s.CrossRegion != 10*time.Millisecond || s.Loopback != time.Microsecond {
		t.Fatalf("scaled = %+v", s)
	}
}

func TestJitterNeverReducesLatency(t *testing.T) {
	cfg := Config{IntraRegion: 5 * time.Millisecond, Jitter: 0.5}
	n := New(cfg, nil)
	defer n.Close()
	a := n.Register("a", "r1")
	b := n.Register("b", "r1")
	for i := 0; i < 5; i++ {
		start := time.Now()
		a.Send("b", vote(uint64(i), "a"))
		recvOne(t, b, time.Second)
		if d := time.Since(start); d < 5*time.Millisecond {
			t.Fatalf("jitter reduced latency: %v", d)
		}
	}
}

func TestLinkBandwidthSerializesLargeMessages(t *testing.T) {
	n := New(testConfig(), nil)
	defer n.Close()
	a := n.Register("a", "r1")
	b := n.Register("b", "r1")
	// 10 KB/s: a ~1KB message takes ~100ms; a tiny vote on an idle link
	// crosses almost immediately.
	n.SetLinkBandwidth("a", "b", 10_000)

	big := &wire.AppendEntriesReq{
		Term:     1,
		LeaderID: "a",
		Entries: []wire.LogEntry{{
			OpID:    opid.OpID{Term: 1, Index: 1},
			Payload: make([]byte, 1000),
		}},
	}
	start := time.Now()
	a.Send("b", big)
	recvOne(t, b, 2*time.Second)
	if d := time.Since(start); d < 80*time.Millisecond {
		t.Fatalf("1KB over 10KB/s delivered in %v, want ~100ms", d)
	}

	// Messages queue cumulatively: two large sends take ~2x.
	start = time.Now()
	a.Send("b", big)
	a.Send("b", big)
	recvOne(t, b, 2*time.Second)
	recvOne(t, b, 2*time.Second)
	if d := time.Since(start); d < 160*time.Millisecond {
		t.Fatalf("two 1KB messages delivered in %v, want ~200ms", d)
	}

	// Clearing the cap restores fast delivery.
	n.SetLinkBandwidth("a", "b", 0)
	start = time.Now()
	a.Send("b", big)
	recvOne(t, b, time.Second)
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Fatalf("uncapped delivery took %v", d)
	}
}
