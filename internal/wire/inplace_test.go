package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"myraft/internal/gtid"
	"myraft/internal/opid"
)

func batchOf(k int) *AppendEntriesReq {
	m := &AppendEntriesReq{Term: 2, LeaderID: "mysql-0", PrevOpID: opid.OpID{Term: 2, Index: 9}, CommitIndex: 8, ReadSeq: 4,
		Route: []NodeID{"lt-1-0"}, ReturnPath: []NodeID{"mysql-0"}}
	for i := 0; i < k; i++ {
		m.Entries = append(m.Entries, LogEntry{
			OpID:    opid.OpID{Term: 2, Index: uint64(10 + i)},
			HasGTID: true,
			GTID:    gtid.GTID{Source: "3e11fa47-71ca-11e1-9e33-c80aa9429562", ID: int64(i + 1)},
			Payload: bytes.Repeat([]byte{'p'}, 200),
		})
	}
	return m
}

// Marshal makes exactly one allocation for an AppendEntries frame of any
// size: the buffer, sized by EncodedSize.
func TestMarshalAllocsOnce(t *testing.T) {
	for _, k := range []int{0, 1, 4, 64} {
		m := batchOf(k)
		if got := testing.AllocsPerRun(50, func() { _, _ = Marshal(m) }); got != 1 {
			t.Fatalf("Marshal of a %d-entry batch: %.1f allocs, want 1", k, got)
		}
		buf := make([]byte, 0, m.EncodedSize())
		if got := testing.AllocsPerRun(50, func() { _, _ = AppendMarshal(buf[:0], m) }); got != 0 {
			t.Fatalf("AppendMarshal into a sized buffer: %.1f allocs, want 0", got)
		}
	}
}

// Unmarshal's allocations do not grow with the entry count when entries
// share one GTID source: the message, its entry slice and its node lists.
func TestUnmarshalAllocsFlatInEntries(t *testing.T) {
	allocs := func(k int) float64 {
		data, err := Marshal(batchOf(k))
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(50, func() { _, _ = Unmarshal(data) })
	}
	one := allocs(1)
	for _, k := range []int{4, 64} {
		if got := allocs(k); got != one {
			t.Fatalf("Unmarshal of %d entries: %.1f allocs, of 1 entry: %.1f", k, got, one)
		}
	}
	if one > 4 {
		t.Fatalf("Unmarshal of one entry: %.1f allocs, want ≤ 4", one)
	}
}

func within(frame, field []byte) bool {
	if len(field) == 0 {
		return true
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(frame)))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(field)))
	return p >= lo && p+uintptr(len(field)) <= lo+uintptr(len(frame))
}

// Decoded byte fields are sub-slices of the frame, capacity-capped so an
// append to one reallocates instead of writing into the frame.
func TestDecodedBytesAliasFrameCapped(t *testing.T) {
	for _, m := range sampleMessages(t) {
		data, err := Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		orig := bytes.Clone(data)
		got, err := Unmarshal(data)
		if err != nil {
			t.Fatal(err)
		}
		var fields [][]byte
		switch g := got.(type) {
		case *AppendEntriesReq:
			for _, e := range g.Entries {
				fields = append(fields, e.Payload)
			}
		case *InstallSnapshotReq:
			fields = append(fields, g.Config, g.Chunk)
		case *ShardEnvelope:
			fields = append(fields, g.Inner)
		case *CoalescedHeartbeat:
			for _, it := range g.Items {
				fields = append(fields, it.Req)
			}
		}
		for _, f := range fields {
			if !within(data, f) {
				t.Fatalf("%T: decoded field is not inside its frame", got)
			}
			if cap(f) != len(f) {
				t.Fatalf("%T: decoded field has cap %d > len %d", got, cap(f), len(f))
			}
			_ = append(f, 0xEE)
		}
		if !bytes.Equal(data, orig) {
			t.Fatalf("%T: appending to decoded fields wrote into the frame", got)
		}
	}
}

// Node IDs and GTID sources decode to one shared string, not a string per
// field.
func TestUnmarshalInternsIDs(t *testing.T) {
	data, err := Marshal(batchOf(2))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := Unmarshal(data)
	b, _ := Unmarshal(data)
	ea, eb := a.(*AppendEntriesReq).Entries, b.(*AppendEntriesReq).Entries
	if unsafe.StringData(string(ea[0].GTID.Source)) != unsafe.StringData(string(eb[1].GTID.Source)) {
		t.Fatal("GTID sources of two decodes do not share one string")
	}
	if unsafe.StringData(string(a.(*AppendEntriesReq).LeaderID)) != unsafe.StringData(string(b.(*AppendEntriesReq).LeaderID)) {
		t.Fatal("leader IDs of two decodes do not share one string")
	}
	long := bytes.Repeat([]byte{'x'}, internMaxLen+1)
	if s := intern(long); s != string(long) {
		t.Fatalf("intern of a long string = %q", s)
	}
}

// bytesAllocated reports the mean heap bytes one call of fn allocates.
func bytesAllocated(runs int, fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// A count read from a frame must not size an allocation the frame's
// remaining bytes cannot fill: a 42-byte AppendEntriesResp claiming 65 536
// route hops used to make Unmarshal allocate 1 MiB before failing.
func TestUntrustedCountsDoNotSizeAllocations(t *testing.T) {
	resp, err := Marshal(&AppendEntriesResp{Term: 1})
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint32(resp[len(resp)-4:], 1<<16)
	if len(resp) != 42 {
		t.Fatalf("frame is %d bytes", len(resp))
	}

	req, err := Marshal(&AppendEntriesReq{Term: 1, LeaderID: "l"})
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint32(req[len(req)-4:], 1<<20)
	req = append(req, bytes.Repeat([]byte{0}, 64)...)

	hb := []byte{uint8(MsgCoalescedHeartbeat), 0, 1, 0, 0}
	hb = append(hb, bytes.Repeat([]byte{0}, 64)...)

	for name, frame := range map[string][]byte{"node list": resp, "entries": req, "coalesced items": hb} {
		if _, err := Unmarshal(frame); err == nil {
			t.Fatalf("%s: oversized count accepted", name)
		}
		if got := bytesAllocated(20, func() { _, _ = Unmarshal(frame) }); got > 4<<10 {
			t.Fatalf("%s: a %d-byte frame made Unmarshal allocate %d B", name, len(frame), got)
		}
	}
}

// Bool fields accept only 0 and 1, so a decoded frame re-encodes byte for
// byte.
func TestUnmarshalRejectsNonCanonicalBools(t *testing.T) {
	data, err := Marshal(&InstallSnapshotResp{Term: 1, From: "f", Success: true, Installed: true})
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] = 2
	if _, err := Unmarshal(data); err == nil {
		t.Fatal("bool byte 2 accepted")
	}
}

// A PROXY_OP's declared payload length survives decode → Marshal.
func TestProxyLenRoundTrip(t *testing.T) {
	m := &AppendEntriesReq{Term: 1, LeaderID: "l", Entries: []LogEntry{{OpID: opid.OpID{Term: 1, Index: 1}, IsProxy: true, Payload: make([]byte, 77)}}}
	data, err := Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if e := got.(*AppendEntriesReq).Entries[0]; e.Payload != nil || e.ProxyLen != 77 {
		t.Fatalf("decoded proxy entry = %+v", e)
	}
	again, err := Marshal(got)
	if err != nil || !bytes.Equal(again, data) {
		t.Fatalf("re-encoded proxy frame differs: %x vs %x (%v)", again, data, err)
	}
}

// A Frame marshals to its Data, and Unwrap sees through it.
func TestFrame(t *testing.T) {
	m := batchOf(3)
	f, err := NewFrame(m)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Marshal(m)
	got, err := Marshal(f)
	if err != nil || !bytes.Equal(got, want) || f.EncodedSize() != len(want) || f.Type() != MsgAppendEntriesReq {
		t.Fatalf("Marshal(Frame) = %x, %v", got, err)
	}
	if Unwrap(f) != Message(m) || Unwrap(m) != Message(m) {
		t.Fatal("Unwrap does not return the framed message")
	}
}

// Decoders on many goroutines share the intern table; with more distinct
// IDs than slots they keep replacing each other's entries, and every
// decode still returns its own frame's IDs.
func TestInternConcurrentDecodes(t *testing.T) {
	const workers, ids = 4, 3 * internSlots
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ids; i++ {
				id := NodeID(fmt.Sprintf("node-%d-%d", (i+w*ids/workers)%ids, i%7))
				data, err := Marshal(&AppendEntriesResp{Term: 1, From: id, Route: []NodeID{id}})
				if err != nil {
					t.Error(err)
					return
				}
				m, err := Unmarshal(data)
				if err != nil {
					t.Error(err)
					return
				}
				if r := m.(*AppendEntriesResp); r.From != id || r.Route[0] != id {
					t.Errorf("decoded %q / %q, sent %q", r.From, r.Route[0], id)
					return
				}
			}
		}()
	}
	wg.Wait()
}
