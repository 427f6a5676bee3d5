package storage

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"myraft/internal/opid"
)

// addPayloadSeeds seeds f with both framings of every change list in the
// reference corpus that is small enough to keep the seed set light.
func addPayloadSeeds(f *testing.F) {
	for _, changes := range changesCorpus() {
		if changesSize(changes) <= 8192 {
			f.Add(EncodeChanges(changes))
			f.Add(EncodeTxnPayload(changes))
		}
	}
	f.Add([]byte{})
}

// FuzzDecodeChanges: decoding arbitrary payload bytes never panics, and a
// successful decode re-encodes to the change-list bytes it parsed (the
// payload minus any writeset section, which DecodeChanges skips).
func FuzzDecodeChanges(f *testing.F) {
	addPayloadSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		changes, err := DecodeChanges(data)
		if err != nil {
			return
		}
		_, rest, err := splitPayload(data)
		if err != nil {
			t.Fatalf("DecodeChanges accepted a payload splitPayload rejects: %v", err)
		}
		if got := EncodeChanges(changes); !bytes.Equal(got, rest) {
			t.Fatalf("re-encoding %d changes differs from the decoded bytes", len(changes))
		}
	})
}

// FuzzDecodeTxnPayload: decoding arbitrary payload bytes never panics, and
// a successful decode re-frames (writeset section, when present, then the
// change list) to exactly the input.
func FuzzDecodeTxnPayload(f *testing.F) {
	addPayloadSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		changes, ws, err := DecodeTxnPayload(data)
		if err != nil {
			return
		}
		var got []byte
		if ws != nil {
			got = binary.BigEndian.AppendUint32(got, payloadMagicV2)
			got = binary.BigEndian.AppendUint32(got, uint32(len(ws)))
			for _, h := range ws {
				got = binary.BigEndian.AppendUint64(got, h)
			}
		}
		got = appendChanges(got, changes)
		if !bytes.Equal(got, data) {
			t.Fatalf("re-framing %d changes (%d writeset hashes) differs from the input", len(changes), len(ws))
		}
		if pws, ok := PayloadWriteset(data); ok != (ws != nil) || pws.Len() != len(ws) {
			t.Fatalf("PayloadWriteset = %d hashes (ok %v), DecodeTxnPayload %d", pws.Len(), ok, len(ws))
		}
	})
}

// FuzzDecodeWALRecord: decoding arbitrary engine WAL bytes never panics,
// and a record that decodes re-encodes to one that decodes to the same
// record (decode → encodeWALRecord → decode is a fixed point).
func FuzzDecodeWALRecord(f *testing.F) {
	changes := []RowChange{
		{Key: "insert", After: []byte("new")},
		{Key: "update", After: make([]byte, 500)},
		{Key: "delete"},
		{Key: "", After: []byte{}},
	}
	for _, rec := range []*walRecord{
		{typ: walPrepare, txnID: 7, changes: changes},
		{typ: walCommit, txnID: 7, op: opid.OpID{Term: 2, Index: 41}},
		{typ: walRollback, txnID: 8},
		{typ: walCheckpoint, op: opid.OpID{Term: 3, Index: 99}, changes: changes[:2]},
	} {
		f.Add(encodeWALRecord(rec))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, _, ok := decodeWALRecord(data)
		if !ok {
			return
		}
		again, rest, ok := decodeWALRecord(encodeWALRecord(rec))
		if !ok || len(rest) != 0 {
			t.Fatalf("re-encoded record does not decode (ok %v, %d bytes left)", ok, len(rest))
		}
		if again.typ != rec.typ || again.txnID != rec.txnID || again.op != rec.op || len(again.changes) != len(rec.changes) {
			t.Fatalf("record changed across re-encoding: %+v vs %+v", rec, again)
		}
		for i, c := range rec.changes {
			g := again.changes[i]
			if g.Key != c.Key || !bytes.Equal(g.Before, c.Before) || !bytes.Equal(g.After, c.After) ||
				(g.Before == nil) != (c.Before == nil) || (g.After == nil) != (c.After == nil) {
				t.Fatalf("change %d changed across re-encoding: %+v vs %+v", i, c, g)
			}
		}
	})
}

// FuzzStagePayload: StagePayload either refuses a payload, writing no
// record, or appends a prepare record that decodes to exactly
// DecodeChanges(payload), before-images and nil markers included — the
// record is the payload's own change-list bytes, never re-encoded. It
// refuses exactly what DecodeChanges refuses.
func FuzzStagePayload(f *testing.F) {
	addPayloadSeeds(f)
	dir := f.TempDir()
	var e *Engine
	f.Fuzz(func(t *testing.T, data []byte) {
		if e == nil || walSize(t, e, dir) > 1<<16 {
			// Bound the WAL a long run grows; Crash skips Close's fsync.
			if e != nil {
				e.Crash()
			}
			os.Remove(filepath.Join(dir, "engine.wal"))
			var err error
			if e, err = Open(Options{Dir: dir}); err != nil {
				t.Fatal(err)
			}
		}
		before := walSize(t, e, dir)
		want, derr := DecodeChanges(data)
		txn, err := e.StagePayload(data)
		if (err == nil) != (derr == nil) {
			t.Fatalf("StagePayload error %v, DecodeChanges error %v", err, derr)
		}
		if err != nil {
			if after := walSize(t, e, dir); after != before {
				t.Fatalf("refused payload wrote %d WAL bytes", after-before)
			}
			return
		}
		defer txn.Rollback()
		walSize(t, e, dir) // flush
		wal, err := os.ReadFile(filepath.Join(dir, "engine.wal"))
		if err != nil {
			t.Fatal(err)
		}
		rec, _, ok := decodeWALRecord(wal[before:])
		if !ok || rec.typ != walPrepare || rec.txnID != txn.ID() || len(rec.changes) != len(want) {
			t.Fatalf("prepare record %+v (ok %v) for %d changes", rec, ok, len(want))
		}
		for i, c := range want {
			g := rec.changes[i]
			if g.Key != c.Key || !bytes.Equal(g.Before, c.Before) || !bytes.Equal(g.After, c.After) ||
				(g.Before == nil) != (c.Before == nil) || (g.After == nil) != (c.After == nil) {
				t.Fatalf("change %d: record %+v, payload %+v", i, g, c)
			}
		}
	})
}

// walSize flushes e and returns its WAL's size.
func walSize(t *testing.T, e *Engine, dir string) int64 {
	if _, err := e.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(dir, "engine.wal"))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// FuzzDecodeCheckpoint: checkpoint bytes arrive from the network in
// InstallSnapshot, so decoding arbitrary bytes never panics, and decode →
// Encode → decode is a fixed point.
func FuzzDecodeCheckpoint(f *testing.F) {
	for _, cp := range []*Checkpoint{
		{Rows: map[string][]byte{}},
		{AppliedOp: opid.OpID{Term: 2, Index: 40}, GTIDSet: "src-1:1-40", Config: []byte("cfg"),
			Rows: map[string][]byte{"a": []byte("1"), "empty": {}, "": []byte("no key")}},
	} {
		f.Add(cp.Encode())
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := DecodeCheckpoint(data)
		if err != nil {
			return
		}
		enc := cp.Encode()
		again, err := DecodeCheckpoint(enc)
		if err != nil {
			t.Fatalf("re-encoded checkpoint does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, cp) || !bytes.Equal(again.Encode(), enc) {
			t.Fatalf("checkpoint changed across re-encoding: %+v vs %+v", cp, again)
		}
	})
}
