package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"myraft/internal/opid"
)

// walRecordBytes returns the engine WAL in dir split into its records'
// raw bytes.
func walRecordBytes(t testing.TB, dir string) [][]byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "engine.wal"))
	if err != nil {
		t.Fatal(err)
	}
	var recs [][]byte
	for len(data) > 0 {
		_, rest, ok := decodeWALRecord(data)
		if !ok {
			t.Fatalf("undecodable WAL record with %d bytes left", len(data))
		}
		recs = append(recs, data[:len(data)-len(rest)])
		data = rest
	}
	return recs
}

// lastWALRecord flushes e and returns its newest record's bytes.
func lastWALRecord(t testing.TB, e *Engine, dir string) []byte {
	t.Helper()
	if _, err := e.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	recs := walRecordBytes(t, dir)
	return recs[len(recs)-1]
}

// writeCases are the payload shapes the prepare record is pinned on.
func writeCases() map[string][]RowChange {
	many := make([]RowChange, 40)
	for i := range many {
		many[i] = RowChange{Key: fmt.Sprintf("row-%02d", i), After: bytes.Repeat([]byte{byte(i)}, i)}
	}
	oversized := make([]RowChange, maxWriteset+1)
	for i := range oversized {
		oversized[i] = RowChange{Key: fmt.Sprintf("wide-%05d", i), After: []byte("v")}
	}
	return map[string][]RowChange{
		"one row":            {{Key: "k", After: []byte("value")}},
		"many rows":          many,
		"delete":             {{Key: "gone"}, {Key: "kept", After: []byte("x")}},
		"empty value":        {{Key: "empty", After: []byte{}}},
		"oversized writeset": oversized,
	}
}

// TestPrepareRecordMatchesEncoder: the prepare record the primary (Txn.
// Prepare, from its own payload) and a replica (StagePayload, from the
// shipped payload) append in place is byte for byte encodeWALRecord — and
// the parent's reference encoder — of the payload's decoded changes, and
// so are the commit and rollback records.
func TestPrepareRecordMatchesEncoder(t *testing.T) {
	for name, changes := range writeCases() {
		t.Run(name, func(t *testing.T) {
			wantPrepare := func(id uint64, payload []byte) []byte {
				t.Helper()
				decoded, err := DecodeChanges(payload)
				if err != nil {
					t.Fatal(err)
				}
				rec := &walRecord{typ: walPrepare, txnID: id, changes: decoded}
				want := encodeWALRecord(rec)
				if !bytes.Equal(want, refEncodeWALRecord(rec)) {
					t.Fatal("encodeWALRecord differs from the reference encoder")
				}
				return want
			}

			dir := t.TempDir()
			e := openTestEngine(t, dir)
			txn := e.Begin()
			for _, c := range changes {
				var err error
				if c.IsDelete() {
					err = txn.Delete(c.Key)
				} else {
					err = txn.Set(c.Key, c.After)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := txn.Prepare(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(txn.Payload(), EncodeTxnPayload(changes)) {
				t.Fatal("primary payload differs from EncodeTxnPayload of its changes")
			}
			if got := lastWALRecord(t, e, dir); !bytes.Equal(got, wantPrepare(txn.ID(), txn.Payload())) {
				t.Fatal("primary prepare record differs from encodeWALRecord")
			}
			op := opid.OpID{Term: 3, Index: 7}
			if err := txn.Commit(op); err != nil {
				t.Fatal(err)
			}
			if got := lastWALRecord(t, e, dir); !bytes.Equal(got, encodeWALRecord(&walRecord{typ: walCommit, txnID: txn.ID(), op: op})) {
				t.Fatal("commit record differs from encodeWALRecord")
			}

			payloads := map[string][]byte{"v2": EncodeTxnPayload(changes), "v1": EncodeChanges(changes)}
			for framing, payload := range payloads {
				rdir := t.TempDir()
				r := openTestEngine(t, rdir)
				staged, err := r.StagePayload(payload)
				if err != nil {
					t.Fatal(err)
				}
				if got := lastWALRecord(t, r, rdir); !bytes.Equal(got, wantPrepare(staged.ID(), payload)) {
					t.Fatalf("%s: staged prepare record differs from encodeWALRecord", framing)
				}
				if err := staged.Rollback(); err != nil {
					t.Fatal(err)
				}
				if got := lastWALRecord(t, r, rdir); !bytes.Equal(got, encodeWALRecord(&walRecord{typ: walRollback, txnID: staged.ID()})) {
					t.Fatalf("%s: rollback record differs from encodeWALRecord", framing)
				}
			}
		})
	}
}

// TestWALMatchesParentEncoder runs one history through the engine and
// writes the same history with the parent's reference encoder: the two
// WAL files are identical, and an engine recovers the reference file to
// the rows the live engine holds.
func TestWALMatchesParentEncoder(t *testing.T) {
	dir := t.TempDir()
	e := openTestEngine(t, dir)
	op1, op2 := opid.OpID{Term: 1, Index: 1}, opid.OpID{Term: 1, Index: 2}
	t1 := e.Begin()
	t1.Set("a", []byte("1"))
	t1.Set("b", []byte("2"))
	if err := t1.Prepare(); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(op1); err != nil {
		t.Fatal(err)
	}
	t2, err := e.StagePayload(EncodeTxnPayload([]RowChange{{Key: "a"}, {Key: "c", After: []byte{}}}))
	if err != nil {
		t.Fatal(err)
	}
	if err := t2.Rollback(); err != nil {
		t.Fatal(err)
	}
	t3, err := e.StagePayload(EncodeChanges([]RowChange{{Key: "c", Before: []byte("old"), After: []byte("x")}}))
	if err != nil {
		t.Fatal(err)
	}
	if err := t3.Commit(op2); err != nil {
		t.Fatal(err)
	}
	t4 := e.Begin()
	t4.Delete("b")
	if err := t4.Prepare(); err != nil { // never committed: recovery rolls it back
		t.Fatal(err)
	}
	if _, err := e.FlushWAL(); err != nil {
		t.Fatal(err)
	}

	var ref []byte
	for _, rec := range []*walRecord{
		{typ: walPrepare, txnID: 1, changes: []RowChange{{Key: "a", After: []byte("1")}, {Key: "b", After: []byte("2")}}},
		{typ: walCommit, txnID: 1, op: op1},
		{typ: walPrepare, txnID: 2, changes: []RowChange{{Key: "a"}, {Key: "c", After: []byte{}}}},
		{typ: walRollback, txnID: 2},
		{typ: walPrepare, txnID: 3, changes: []RowChange{{Key: "c", Before: []byte("old"), After: []byte("x")}}},
		{typ: walCommit, txnID: 3, op: op2},
		{typ: walPrepare, txnID: 4, changes: []RowChange{{Key: "b"}}},
	} {
		ref = append(ref, refEncodeWALRecord(rec)...)
	}
	got, err := os.ReadFile(filepath.Join(dir, "engine.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatalf("engine WAL (%d bytes) differs from the reference encoding (%d bytes)", len(got), len(ref))
	}

	refDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(refDir, "engine.wal"), ref, 0o644); err != nil {
		t.Fatal(err)
	}
	recovered := openTestEngine(t, refDir)
	want := map[string]string{"a": "1", "b": "2", "c": "x"}
	if rows := recovered.Rows(); len(rows) != len(want) {
		t.Fatalf("recovered rows = %q, want %q", rows, want)
	}
	for k, v := range want {
		if got, ok := recovered.Get(k); !ok || string(got) != v {
			t.Fatalf("recovered %s = %q, %v; want %q", k, got, ok, v)
		}
	}
	if got := recovered.LastCommitted(); got != op2 {
		t.Fatalf("recovered cursor %v, want %v", got, op2)
	}
}

// TestStagePayloadRefusesBadPayloads: a payload that does not decode is
// refused with nothing locked and nothing written.
func TestStagePayloadRefusesBadPayloads(t *testing.T) {
	dir := t.TempDir()
	e := openTestEngine(t, dir)
	good := EncodeTxnPayload([]RowChange{{Key: "a", After: []byte("1")}, {Key: "b", After: []byte("2")}})
	for _, bad := range [][]byte{
		nil,
		good[:len(good)-1],                   // truncated after-image
		append(bytes.Clone(good), 0),         // trailing byte
		good[:10],                            // truncated writeset
		{0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff}, // nil key marker
	} {
		if txn, err := e.StagePayload(bad); err == nil {
			txn.Rollback()
			t.Fatalf("StagePayload(%x) succeeded", bad)
		}
	}
	if _, err := e.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(filepath.Join(dir, "engine.wal")); len(data) != 0 {
		t.Fatalf("refused payloads wrote %d WAL bytes", len(data))
	}
	// Nothing stayed locked: a write to every key goes through at once.
	txn := e.Begin()
	defer txn.Rollback()
	for _, k := range []string{"a", "b"} {
		if err := txn.Set(k, nil); err != nil {
			t.Fatalf("row %s still locked: %v", k, err)
		}
	}
}

// TestStagePayloadCopiesValues: committed rows must not alias the
// payload, which the relay log's in-memory tail keeps and shares.
func TestStagePayloadCopiesValues(t *testing.T) {
	e := openTestEngine(t, "")
	payload := EncodeTxnPayload([]RowChange{{Key: "k", After: []byte("value")}})
	txn, err := e.StagePayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(opid.OpID{Term: 1, Index: 1}); err != nil {
		t.Fatal(err)
	}
	for i := range payload {
		payload[i] ^= 0xff
	}
	if got, _ := e.Get("k"); string(got) != "value" {
		t.Fatalf("row = %q after the payload was overwritten", got)
	}
}

// TestTxnFindsKeysPastTheScanLimit: past txnScanMax changes the key index
// takes over; rewrites still land on the first-write position and reads
// see the latest write.
func TestTxnFindsKeysPastTheScanLimit(t *testing.T) {
	e := openTestEngine(t, "")
	txn := e.Begin()
	defer txn.Rollback()
	const n = 3 * txnScanMax
	for round := 0; round < 2; round++ {
		for i := 0; i < n; i++ {
			if err := txn.Set(fmt.Sprintf("k%02d", i), []byte(fmt.Sprint(round))); err != nil {
				t.Fatal(err)
			}
			if got := len(txn.Changes()); got != max(i+1, round*n) {
				t.Fatalf("round %d write %d: %d changes", round, i, got)
			}
		}
	}
	for i, c := range txn.Changes() {
		if c.Key != fmt.Sprintf("k%02d", i) || string(c.After) != "1" {
			t.Fatalf("change %d = %s→%q", i, c.Key, c.After)
		}
		if v, ok, err := txn.Get(c.Key); err != nil || !ok || string(v) != "1" {
			t.Fatalf("Get(%s) = %q, %v, %v", c.Key, v, ok, err)
		}
	}
}

// TestRollbackAfterCrashWithLockWaiters: Crash wakes lock waiters by
// closing their channels; the lock table holds locks by value, so the
// cleared waiter list must be written back or the owner's later Rollback
// closes the same channels again and panics.
func TestRollbackAfterCrashWithLockWaiters(t *testing.T) {
	e, err := Open(Options{Dir: t.TempDir(), LockWaitTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	owner := e.Begin()
	if err := owner.Set("k", []byte("1")); err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() {
		waiter := e.Begin()
		waitErr <- waiter.Set("k", []byte("2"))
	}()
	// Wait until the waiter is parked on the lock.
	for deadline := time.Now().Add(5 * time.Second); ; {
		e.mu.Lock()
		parked := len(e.locks["k"].waiters) > 0
		e.mu.Unlock()
		if parked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiter never parked")
		}
		time.Sleep(time.Millisecond)
	}
	e.Crash()
	if err := <-waitErr; !errors.Is(err, ErrClosed) {
		t.Fatalf("waiter after crash = %v, want ErrClosed", err)
	}
	if err := owner.Rollback(); err != nil {
		t.Fatal(err)
	}
}
