package transport

import (
	"bytes"
	"testing"
	"time"
	"unsafe"

	"myraft/internal/opid"
	"myraft/internal/wire"
)

func batch(payloads ...string) *wire.AppendEntriesReq {
	req := &wire.AppendEntriesReq{Term: 1, LeaderID: "a", ReturnPath: []wire.NodeID{"a"}}
	for i, p := range payloads {
		req.Entries = append(req.Entries, wire.LogEntry{OpID: opid.OpID{Term: 1, Index: uint64(i + 1)}, Payload: []byte(p)})
	}
	return req
}

func payloads(t *testing.T, msg wire.Message) []string {
	t.Helper()
	req, ok := msg.(*wire.AppendEntriesReq)
	if !ok {
		t.Fatalf("delivered %T, want *wire.AppendEntriesReq", msg)
	}
	var out []string
	for _, e := range req.Entries {
		out = append(out, string(e.Payload))
	}
	return out
}

// A TCP frame is built in one buffer of exactly its size: length, sender
// and message, marshalled in place.
func TestFrameTCPEncodeOneBuffer(t *testing.T) {
	msg := batch("one", "two", "three")
	frame, err := encodeFrame("sender", msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) != cap(frame) || len(frame) != 4+2+len("sender")+msg.EncodedSize() {
		t.Fatalf("frame len %d cap %d, message %d bytes", len(frame), cap(frame), msg.EncodedSize())
	}
	if got := testing.AllocsPerRun(50, func() { _, _ = encodeFrame("sender", msg) }); got != 1 {
		t.Fatalf("encodeFrame: %.1f allocs, want 1", got)
	}
	from, data, err := readFrame(bytes.NewReader(frame), new([4]byte))
	if err != nil || string(from) != "sender" {
		t.Fatalf("readFrame = %q, %v", from, err)
	}
	want, _ := wire.Marshal(msg)
	if !bytes.Equal(data, want) {
		t.Fatal("frame body differs from wire.Marshal")
	}
}

// readFrame returns a fresh buffer per frame: the receiver decodes in
// place, so a later frame must never land in the bytes of an earlier one.
func TestFrameReadFreshBufferPerFrame(t *testing.T) {
	var stream bytes.Buffer
	for _, p := range []string{"first", "second"} {
		f, err := encodeFrame("a", batch(p))
		if err != nil {
			t.Fatal(err)
		}
		stream.Write(f)
	}
	var hdr [4]byte
	_, first, err := readFrame(&stream, &hdr)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := wire.Unmarshal(first)
	if err != nil {
		t.Fatal(err)
	}
	_, second, err := readFrame(&stream, &hdr)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := uintptr(unsafe.Pointer(&first[0])), uintptr(unsafe.Pointer(&first[0]))+uintptr(cap(first))
	if p := uintptr(unsafe.Pointer(&second[0])); p >= lo && p < hi {
		t.Fatal("second frame reuses the first frame's buffer")
	}
	if got := payloads(t, msg); got[0] != "first" {
		t.Fatalf("first frame's payload became %q", got[0])
	}
}

// The sender's batch buffer (raft's per-peer scratch) is free again once
// Send returns: rewriting it and sending again leaves what the receiver
// already got untouched, on both transports.
func TestFrameScratchReuseKeepsPayloads(t *testing.T) {
	check := func(t *testing.T, send func(wire.Message), recv func() Envelope) {
		scratch := batch("alpha", "beta").Entries
		req := &wire.AppendEntriesReq{Term: 1, LeaderID: "a", Entries: scratch}
		send(req)
		scratch[0] = wire.LogEntry{OpID: opid.OpID{Term: 1, Index: 3}, Payload: []byte("gamma")}
		scratch[1] = wire.LogEntry{OpID: opid.OpID{Term: 1, Index: 4}, Payload: []byte("delta")}
		send(req)
		first, second := recv(), recv()
		if got := payloads(t, first.Msg); got[0] != "alpha" || got[1] != "beta" {
			t.Fatalf("first delivery's payloads became %q", got)
		}
		if got := payloads(t, second.Msg); got[0] != "gamma" || got[1] != "delta" {
			t.Fatalf("second delivery's payloads = %q", got)
		}
	}
	t.Run("inproc", func(t *testing.T) {
		n := New(testConfig(), nil)
		defer n.Close()
		a, b := n.Register("a", "r1"), n.Register("b", "r1")
		check(t, func(m wire.Message) { a.Send("b", m) }, func() Envelope { return recvOne(t, b, time.Second) })
	})
	t.Run("tcp", func(t *testing.T) {
		a, b := newTCPPair(t)
		check(t, func(m wire.Message) { a.Send("b", m) }, func() Envelope { return recvTCP(t, b, 5*time.Second) })
	})
}

// A Frame sent to several peers is encoded once: every in-process
// receiver decodes its own message from the frame's one buffer, metered
// at the frame's size, and the TCP loopback delivers the framed message.
func TestFrameSentToSeveralPeers(t *testing.T) {
	n := New(testConfig(), nil)
	defer n.Close()
	a := n.Register("a", "r1")
	peers := []*Endpoint{n.Register("b", "r1"), n.Register("c", "r1")}
	f, err := wire.NewFrame(batch("shared"))
	if err != nil {
		t.Fatal(err)
	}
	var got []*wire.AppendEntriesReq
	for _, p := range peers {
		if err := a.Send(p.ID(), f); err != nil {
			t.Fatal(err)
		}
		env := recvOne(t, p, time.Second)
		if env.Size != len(f.Data) {
			t.Fatalf("metered %d bytes, frame is %d", env.Size, len(f.Data))
		}
		if payloads(t, env.Msg)[0] != "shared" {
			t.Fatalf("payload = %q", payloads(t, env.Msg))
		}
		got = append(got, env.Msg.(*wire.AppendEntriesReq))
	}
	if got[0] == got[1] {
		t.Fatal("two receivers share one decoded message")
	}
	p0, p1 := got[0].Entries[0].Payload, got[1].Entries[0].Payload
	if &p0[0] != &p1[0] || &p0[0] == &f.Msg.(*wire.AppendEntriesReq).Entries[0].Payload[0] {
		t.Fatal("receivers' payloads are not the frame's bytes")
	}

	tcp, _ := newTCPPair(t)
	if err := tcp.Send("a", f); err != nil {
		t.Fatal(err)
	}
	if env := recvTCP(t, tcp, 5*time.Second); env.Msg != f.Msg {
		t.Fatalf("TCP loopback delivered %T, want the framed message", env.Msg)
	}
}

// Through a shard port a Frame's bytes become every envelope's Inner as
// they are: each peer's decoded payload lies inside the one encoded
// buffer. A framed heartbeat is still buffered for coalescing.
func TestFrameThroughShardPort(t *testing.T) {
	net := New(Config{IntraRegion: time.Microsecond}, nil)
	t.Cleanup(net.Close)
	var ds []*Demux
	for _, id := range []wire.NodeID{"a", "b", "c"} {
		d := NewDemux(net.Register(id, "r1"), nil, DemuxConfig{FlushInterval: time.Hour})
		t.Cleanup(d.Close)
		ds = append(ds, d)
	}
	f, err := wire.NewFrame(batch("shared"))
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := uintptr(unsafe.Pointer(&f.Data[0])), uintptr(unsafe.Pointer(&f.Data[0]))+uintptr(len(f.Data))
	for _, d := range ds[1:] {
		if err := ds[0].Shard(3).Send(d.ID(), f); err != nil {
			t.Fatal(err)
		}
		env := recvShard(t, d.Shard(3))
		p := env.Msg.(*wire.AppendEntriesReq).Entries[0].Payload
		if string(p) != "shared" {
			t.Fatalf("payload = %q", p)
		}
		if at := uintptr(unsafe.Pointer(&p[0])); at < lo || at >= hi {
			t.Fatal("receiver's payload is not inside the frame")
		}
	}

	hb, err := wire.NewFrame(&wire.AppendEntriesReq{Term: 1, LeaderID: "a", ReadSeq: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds[0].Shard(3).Send("b", hb); err != nil {
		t.Fatal(err)
	}
	before := ds[0].Stats()
	ds[0].Flush()
	if got := ds[0].Stats().CoalescedItems - before.CoalescedItems; got != 1 {
		t.Fatalf("framed heartbeat: %d coalesced items flushed, want 1", got)
	}
	if env := recvShard(t, ds[1].Shard(3)); env.Msg.(*wire.AppendEntriesReq).ReadSeq != 5 {
		t.Fatalf("coalesced heartbeat = %+v", env.Msg)
	}
}
