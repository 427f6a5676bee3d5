package storage

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"sort"
	"testing"

	"myraft/internal/opid"
)

// The ref* functions are the append-grown encoders the size-then-fill ones
// replaced, kept verbatim as the byte-for-byte reference: what is on disk
// and on the wire must not change.

func refEncodeChanges(changes []RowChange) []byte {
	buf := binary.BigEndian.AppendUint32(nil, uint32(len(changes)))
	for _, c := range changes {
		buf = appendBytes(buf, []byte(c.Key))
		buf = appendBytes(buf, c.Before)
		buf = appendBytes(buf, c.After)
	}
	return buf
}

func refWritesetOf(changes []RowChange) Writeset {
	if len(changes) == 0 {
		return nil
	}
	ws := make(Writeset, 0, len(changes))
	for _, c := range changes {
		ws = append(ws, HashKey(c.Key))
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
	out := ws[:1]
	for _, h := range ws[1:] {
		if h != out[len(out)-1] {
			out = append(out, h)
		}
	}
	return out
}

func refEncodeTxnPayload(changes []RowChange) []byte {
	ws := refWritesetOf(changes)
	if len(ws) == 0 || len(ws) > maxWriteset {
		return refEncodeChanges(changes)
	}
	buf := binary.BigEndian.AppendUint32(nil, payloadMagicV2)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(ws)))
	for _, h := range ws {
		buf = binary.BigEndian.AppendUint64(buf, h)
	}
	return append(buf, refEncodeChanges(changes)...)
}

func refEncodeWALRecord(rec *walRecord) []byte {
	body := []byte{byte(rec.typ)}
	body = binary.BigEndian.AppendUint64(body, rec.txnID)
	body = binary.BigEndian.AppendUint64(body, rec.op.Term)
	body = binary.BigEndian.AppendUint64(body, rec.op.Index)
	body = appendBytes(body, refEncodeChanges(rec.changes))
	buf := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	buf = append(buf, body...)
	return binary.BigEndian.AppendUint32(buf, crc32.Checksum(body, castagnoli))
}

// randomChanges draws a change list with the shapes the format
// distinguishes: inserts (nil Before), deletes (nil After), empty but
// non-nil images, empty and repeated keys, and values up to several KB.
func randomChanges(rng *rand.Rand) []RowChange {
	image := func() []byte {
		switch rng.Intn(4) {
		case 0:
			return nil
		case 1:
			return []byte{}
		}
		b := make([]byte, rng.Intn(4096))
		rng.Read(b)
		return b
	}
	keys := []string{"", "k", "sbtest1:00000042", string(make([]byte, 300))}
	changes := make([]RowChange, rng.Intn(24))
	for i := range changes {
		changes[i] = RowChange{Key: keys[rng.Intn(len(keys))], Before: image(), After: image()}
	}
	return changes
}

// changesCorpus is the reference-bytes corpus: edge cases, 500 seeded
// random change lists, and one past maxWriteset keys. The payload fuzz
// targets seed from it too.
func changesCorpus() [][]RowChange {
	rng := rand.New(rand.NewSource(16))
	corpus := [][]RowChange{nil, {}, {{Key: "k"}}, {{Key: "k", After: []byte("v")}}}
	for i := 0; i < 500; i++ {
		corpus = append(corpus, randomChanges(rng))
	}
	// Past maxWriteset distinct keys the payload drops to the v1 framing.
	big := make([]RowChange, maxWriteset+1)
	for i := range big {
		big[i] = RowChange{Key: string(binary.BigEndian.AppendUint32(nil, uint32(i))), After: []byte("v")}
	}
	return append(corpus, big)
}

func TestEncodersMatchReferenceBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for i, changes := range changesCorpus() {
		if got, want := EncodeChanges(changes), refEncodeChanges(changes); !bytes.Equal(got, want) {
			t.Fatalf("corpus %d: EncodeChanges differs from reference", i)
		}
		if got, want := EncodeTxnPayload(changes), refEncodeTxnPayload(changes); !bytes.Equal(got, want) {
			t.Fatalf("corpus %d: EncodeTxnPayload differs from reference", i)
		}
		for _, typ := range []walRecordType{walPrepare, walCommit, walCheckpoint} {
			rec := &walRecord{typ: typ, txnID: rng.Uint64(), op: opid.OpID{Term: rng.Uint64(), Index: rng.Uint64()}, changes: changes}
			got := encodeWALRecord(rec)
			if !bytes.Equal(got, refEncodeWALRecord(rec)) {
				t.Fatalf("corpus %d: encodeWALRecord(%d) differs from reference", i, typ)
			}
			if len(got) != cap(got) {
				t.Fatalf("corpus %d: WAL record sized %d, filled %d", i, cap(got), len(got))
			}
		}
	}
}

func TestEncodersAllocateOnce(t *testing.T) {
	changes := []RowChange{
		{Key: "sbtest1:00000042", Before: make([]byte, 500), After: make([]byte, 500)},
		{Key: "sbtest1:00000043", After: make([]byte, 500)},
		{Key: "sbtest1:00000044", Before: make([]byte, 500)},
	}
	rec := &walRecord{typ: walPrepare, txnID: 7, changes: changes}
	for name, fn := range map[string]func(){
		"EncodeChanges":    func() { EncodeChanges(changes) },
		"EncodeTxnPayload": func() { EncodeTxnPayload(changes) },
		"encodeWALRecord":  func() { encodeWALRecord(rec) },
	} {
		if n := testing.AllocsPerRun(100, fn); n > 1 {
			t.Errorf("%s: %v allocs per call, want at most 1", name, n)
		}
	}
}
