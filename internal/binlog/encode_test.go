package binlog

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"

	"myraft/internal/gtid"
	"myraft/internal/opid"
)

// The ref* functions are the encoders appendEntry replaced (each event
// body built apart, then copied behind its header), kept verbatim as the
// byte-for-byte reference: the on-disk format must not change.

func refAppendEvent(buf []byte, typ EventType, body []byte) []byte {
	start := len(buf)
	buf = append(buf, byte(typ))
	buf = binary.BigEndian.AppendUint16(buf, 0)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(body)))
	buf = append(buf, body...)
	sum := crc32.Checksum(buf[start:], castagnoli)
	return binary.BigEndian.AppendUint32(buf, sum)
}

func refEncodeGTIDBody(b *gtidEventBody) []byte {
	buf := make([]byte, 0, 64)
	buf = binary.BigEndian.AppendUint64(buf, b.op.Term)
	buf = binary.BigEndian.AppendUint64(buf, b.op.Index)
	buf = append(buf, byte(b.entryType))
	if b.hasGTID {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	src := []byte(b.g.Source)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(src)))
	buf = append(buf, src...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(b.g.ID))
	buf = binary.BigEndian.AppendUint32(buf, b.payloadSum)
	buf = binary.BigEndian.AppendUint32(buf, b.payloadLen)
	buf = binary.BigEndian.AppendUint32(buf, b.eventsToXid)
	return buf
}

func refEncodeEntry(e *Entry) []byte {
	chunks := (len(e.Payload) + rowChunkSize - 1) / rowChunkSize
	hdr := gtidEventBody{
		op:          e.OpID,
		entryType:   e.Type,
		hasGTID:     e.HasGTID,
		payloadSum:  e.Checksum(),
		payloadLen:  uint32(len(e.Payload)),
		eventsToXid: uint32(chunks),
	}
	if e.HasGTID {
		hdr.g = e.GTID
	}
	buf := refAppendEvent(nil, EventGTID, refEncodeGTIDBody(&hdr))
	for i := 0; i < chunks; i++ {
		lo := i * rowChunkSize
		hi := lo + rowChunkSize
		if hi > len(e.Payload) {
			hi = len(e.Payload)
		}
		buf = refAppendEvent(buf, EventRows, e.Payload[lo:hi])
	}
	xid := binary.BigEndian.AppendUint64(nil, e.OpID.Index)
	return refAppendEvent(buf, EventXid, xid)
}

// encodeCorpus is the reference-bytes corpus: hand-picked edge cases plus
// 300 seeded random entries. FuzzReadEntryAt seeds from it too.
func encodeCorpus() []*Entry {
	rng := rand.New(rand.NewSource(16))
	payload := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	corpus := []*Entry{
		{OpID: opid.OpID{Term: 1, Index: 1}, Type: EntryNoOp},
		{OpID: opid.OpID{Term: 1, Index: 2}, Type: EntryRotate},
		{OpID: opid.OpID{Term: 2, Index: 3}, Type: EntryConfig, Payload: payload(90)},
		{OpID: opid.OpID{Term: 2, Index: 4}, Type: EntryNormal, HasGTID: true, GTID: gtid.GTID{Source: "uuid-a", ID: 9}, Payload: []byte{}},
		// A GTID that HasGTID says is absent must not reach the disk.
		{OpID: opid.OpID{Term: 2, Index: 5}, Type: EntryNormal, GTID: gtid.GTID{Source: "stale", ID: 3}, Payload: payload(10)},
		// Chunk boundaries: exactly one chunk, one byte over, several.
		{OpID: opid.OpID{Term: 3, Index: 6}, Type: EntryNormal, HasGTID: true, GTID: gtid.GTID{Source: "u", ID: 1}, Payload: payload(rowChunkSize)},
		{OpID: opid.OpID{Term: 3, Index: 7}, Type: EntryNormal, HasGTID: true, GTID: gtid.GTID{Source: "u", ID: 2}, Payload: payload(rowChunkSize + 1)},
		{OpID: opid.OpID{Term: 3, Index: 8}, Type: EntryNormal, HasGTID: true, GTID: gtid.GTID{Source: "u", ID: 3}, Payload: payload(3*rowChunkSize + 17)},
	}
	for i := 0; i < 300; i++ {
		e := &Entry{
			OpID:    opid.OpID{Term: rng.Uint64(), Index: rng.Uint64()},
			Type:    EntryType(1 + rng.Intn(4)),
			HasGTID: rng.Intn(2) == 0,
			GTID:    gtid.GTID{Source: gtid.UUID(payload(rng.Intn(40))), ID: rng.Int63()},
			Payload: payload(rng.Intn(2048)),
		}
		corpus = append(corpus, e)
	}
	return corpus
}

func TestEncodeEntryMatchesReferenceBytes(t *testing.T) {
	// One buffer reused across the corpus, as Log.Append reuses its own:
	// bytes left over from a longer entry must not leak into a shorter one.
	var buf []byte
	for i, e := range encodeCorpus() {
		buf = appendEntry(buf[:0], e)
		if !bytes.Equal(buf, refEncodeEntry(e)) {
			t.Fatalf("corpus %d (%v, %d payload bytes): encoding differs from reference", i, e.Type, len(e.Payload))
		}
	}
}

func TestEncodeEntryAllocatesNothingIntoAReusedBuffer(t *testing.T) {
	e := &Entry{
		OpID: opid.OpID{Term: 3, Index: 42}, Type: EntryNormal,
		HasGTID: true, GTID: gtid.GTID{Source: "uuid-mysql-0", ID: 42},
		Payload: make([]byte, 600),
	}
	buf := appendEntry(nil, e)
	if n := testing.AllocsPerRun(100, func() { buf = appendEntry(buf[:0], e) }); n != 0 {
		t.Fatalf("appendEntry allocates %v objects per entry", n)
	}
}
