//go:build !race

package storage

import (
	"testing"

	"myraft/internal/opid"
)

// The race detector allocates on its own; these pins run without it.

// TestPrimaryTxnAllocs pins a one-row primary transaction — Begin, Set,
// Prepare (which encodes the payload once and writes the WAL record from
// it in place), Commit — at three allocations: the Txn, the value copy
// and the payload.
func TestPrimaryTxnAllocs(t *testing.T) {
	e := openTestEngine(t, t.TempDir())
	value := make([]byte, 500)
	index := uint64(0)
	allocs := testing.AllocsPerRun(200, func() {
		index++
		txn := e.Begin()
		if err := txn.Set("k00042", value); err != nil {
			t.Fatal(err)
		}
		if err := txn.Prepare(); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(opid.OpID{Term: 1, Index: index}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("one-row primary transaction allocates %v times, want ≤ 3", allocs)
	}
}

// TestStagedTxnAllocs pins a one-row replica transaction — StagePayload
// and Commit — at three allocations: the Txn, the key and the value copy.
func TestStagedTxnAllocs(t *testing.T) {
	e := openTestEngine(t, t.TempDir())
	payload := EncodeTxnPayload([]RowChange{{Key: "k00042", After: make([]byte, 500)}})
	index := uint64(0)
	allocs := testing.AllocsPerRun(200, func() {
		index++
		txn, err := e.StagePayload(payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(opid.OpID{Term: 1, Index: index}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("one-row staged transaction allocates %v times, want ≤ 3", allocs)
	}
}
