package storage

import (
	"fmt"
	"reflect"
	"testing"

	"myraft/internal/opid"
)

func TestWritesetOfSortedDeduped(t *testing.T) {
	changes := []RowChange{
		{Key: "b", After: []byte("1")},
		{Key: "a", After: []byte("2")},
		{Key: "b", After: nil}, // rewrite of b: one hash, not two
	}
	ws := WritesetOf(changes)
	if len(ws) != 2 {
		t.Fatalf("writeset = %v, want 2 distinct hashes", ws)
	}
	if ws[0] >= ws[1] {
		t.Fatalf("writeset not sorted: %v", ws)
	}
	want := map[uint64]bool{HashKey("a"): true, HashKey("b"): true}
	for _, h := range ws {
		if !want[h] {
			t.Fatalf("unexpected hash %d in %v", h, ws)
		}
	}
	if WritesetOf(nil) != nil {
		t.Fatal("empty change list should have nil writeset")
	}
}

func TestTxnPayloadRoundTrip(t *testing.T) {
	changes := []RowChange{
		{Key: "k1", Before: []byte("old"), After: []byte("new")},
		{Key: "k2", After: nil}, // delete
	}
	payload := EncodeTxnPayload(changes)

	// Full decode returns both halves.
	got, ws, err := DecodeTxnPayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, changes) {
		t.Fatalf("changes = %+v, want %+v", got, changes)
	}
	if !reflect.DeepEqual(ws, WritesetOf(changes)) {
		t.Fatalf("writeset = %v, want %v", ws, WritesetOf(changes))
	}

	// The cheap peek sees the same writeset.
	peek, ok := PayloadWriteset(payload)
	if !ok || !reflect.DeepEqual(viewHashes(peek), ws) {
		t.Fatalf("peek = %v %v, want %v", peek, ok, ws)
	}

	// Legacy readers that only know DecodeChanges skip the writeset.
	got, err = DecodeChanges(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, changes) {
		t.Fatalf("legacy decode = %+v, want %+v", got, changes)
	}
}

func TestLegacyPayloadHasNoWriteset(t *testing.T) {
	changes := []RowChange{{Key: "k", After: []byte("v")}}
	payload := EncodeChanges(changes)
	if ws, ok := PayloadWriteset(payload); ok {
		t.Fatalf("v1 payload produced writeset %v", ws)
	}
	got, ws, err := DecodeTxnPayload(payload)
	if err != nil || ws != nil {
		t.Fatalf("v1 DecodeTxnPayload = ws %v err %v", ws, err)
	}
	if !reflect.DeepEqual(got, changes) {
		t.Fatalf("changes = %+v", got)
	}
}

func TestOversizedWritesetFallsBackToV1(t *testing.T) {
	changes := make([]RowChange, maxWriteset+1)
	for i := range changes {
		changes[i] = RowChange{Key: fmt.Sprintf("key-%d", i), After: []byte("v")}
	}
	payload := EncodeTxnPayload(changes)
	if _, ok := PayloadWriteset(payload); ok {
		t.Fatal("oversized writeset should ship as v1 (serial-fallback) payload")
	}
	got, err := DecodeChanges(payload)
	if err != nil || len(got) != len(changes) {
		t.Fatalf("decode = %d changes, err %v", len(got), err)
	}
}

func TestTruncatedWritesetRejected(t *testing.T) {
	payload := EncodeTxnPayload([]RowChange{
		{Key: "a", After: []byte("1")},
		{Key: "b", After: []byte("2")},
	})
	// Cut inside the writeset section.
	if _, _, err := DecodeTxnPayload(payload[:10]); err == nil {
		t.Fatal("truncated writeset decoded")
	}
	if _, err := DecodeChanges(payload[:10]); err == nil {
		t.Fatal("truncated writeset decoded by DecodeChanges")
	}
}

func TestWALCommitOpsTracksCommits(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	var want []opid.OpID
	for i := 1; i <= 3; i++ {
		txn := e.Begin()
		if err := txn.Set(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := txn.Prepare(); err != nil {
			t.Fatal(err)
		}
		op := opid.OpID{Term: 1, Index: uint64(i)}
		if err := txn.Commit(op); err != nil {
			t.Fatal(err)
		}
		want = append(want, op)
	}
	// A prepared-then-rolled-back txn leaves no commit record.
	txn := e.Begin()
	txn.Set("x", []byte("y"))
	txn.Prepare()
	txn.Rollback()
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}

	ops, err := WALCommitOps(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ops, want) {
		t.Fatalf("commit ops = %v, want %v", ops, want)
	}
}

// viewHashes copies a writeset view's hashes out.
func viewHashes(v WritesetView) Writeset {
	ws := make(Writeset, v.Len())
	for i := range ws {
		ws[i] = v.At(i)
	}
	return ws
}
