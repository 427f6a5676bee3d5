package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"myraft/internal/opid"
)

func openTestEngine(t *testing.T, dir string) *Engine {
	t.Helper()
	if dir == "" {
		dir = t.TempDir()
	}
	e, err := Open(Options{Dir: dir, LockWaitTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func mustCommit(t *testing.T, e *Engine, op opid.OpID, kv map[string]string) {
	t.Helper()
	txn := e.Begin()
	for k, v := range kv {
		if err := txn.Set(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Prepare(); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(op); err != nil {
		t.Fatal(err)
	}
}

func TestCommitVisible(t *testing.T) {
	e := openTestEngine(t, "")
	mustCommit(t, e, opid.OpID{Term: 1, Index: 1}, map[string]string{"a": "1"})
	v, ok := e.Get("a")
	if !ok || string(v) != "1" {
		t.Fatalf("Get = %q %v", v, ok)
	}
	if e.LastCommitted() != (opid.OpID{Term: 1, Index: 1}) {
		t.Fatalf("LastCommitted = %v", e.LastCommitted())
	}
}

func TestUncommittedInvisible(t *testing.T) {
	e := openTestEngine(t, "")
	txn := e.Begin()
	txn.Set("a", []byte("dirty"))
	if _, ok := e.Get("a"); ok {
		t.Fatal("uncommitted write visible")
	}
	txn.Prepare()
	if _, ok := e.Get("a"); ok {
		t.Fatal("prepared write visible")
	}
	txn.Rollback()
	if _, ok := e.Get("a"); ok {
		t.Fatal("rolled-back write visible")
	}
}

func TestReadYourWrites(t *testing.T) {
	e := openTestEngine(t, "")
	mustCommit(t, e, opid.OpID{Term: 1, Index: 1}, map[string]string{"a": "old"})
	txn := e.Begin()
	txn.Set("a", []byte("new"))
	v, ok, err := txn.Get("a")
	if err != nil || !ok || string(v) != "new" {
		t.Fatalf("txn.Get = %q %v %v", v, ok, err)
	}
	txn.Delete("a")
	if _, ok, _ := txn.Get("a"); ok {
		t.Fatal("deleted key visible in txn")
	}
	txn.Rollback()
}

func TestDeleteCommits(t *testing.T) {
	e := openTestEngine(t, "")
	mustCommit(t, e, opid.OpID{Term: 1, Index: 1}, map[string]string{"a": "x"})
	txn := e.Begin()
	txn.Delete("a")
	txn.Prepare()
	txn.Commit(opid.OpID{Term: 1, Index: 2})
	if _, ok := e.Get("a"); ok {
		t.Fatal("deleted key still present")
	}
	if e.RowCount() != 0 {
		t.Fatalf("RowCount = %d", e.RowCount())
	}
}

func TestRowLockBlocksConflictingTxn(t *testing.T) {
	e := openTestEngine(t, "")
	t1 := e.Begin()
	if err := t1.Set("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	t1.Prepare()

	done := make(chan error, 1)
	go func() {
		t2 := e.Begin()
		if err := t2.Set("k", []byte("v2")); err != nil {
			done <- err
			return
		}
		t2.Prepare()
		done <- t2.Commit(opid.OpID{Term: 1, Index: 2})
	}()

	select {
	case err := <-done:
		t.Fatalf("conflicting txn proceeded before lock release: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := t1.Commit(opid.OpID{Term: 1, Index: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("blocked txn never proceeded after lock release")
	}
	v, _ := e.Get("k")
	if string(v) != "v2" {
		t.Fatalf("final value = %q", v)
	}
}

func TestLockTimeout(t *testing.T) {
	e := openTestEngine(t, "")
	t1 := e.Begin()
	t1.Set("k", []byte("v1"))
	t2 := e.Begin()
	err := t2.Set("k", []byte("v2"))
	if !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("err = %v, want ErrLockTimeout", err)
	}
	t1.Rollback()
}

func TestRollbackReleasesLocks(t *testing.T) {
	e := openTestEngine(t, "")
	t1 := e.Begin()
	t1.Set("k", []byte("v1"))
	t1.Rollback()
	t2 := e.Begin()
	if err := t2.Set("k", []byte("v2")); err != nil {
		t.Fatalf("lock not released by rollback: %v", err)
	}
	t2.Rollback()
}

func TestChangesKeepFirstWriteOrderWithMinimalImages(t *testing.T) {
	e := openTestEngine(t, "")
	mustCommit(t, e, opid.OpID{Term: 1, Index: 1}, map[string]string{"a": "orig", "c": "orig"})
	txn := e.Begin()
	txn.Set("b", []byte("1")) // insert
	txn.Set("a", []byte("2")) // update
	if got := txn.Changes(); len(got) != 2 {
		t.Fatalf("changes before the rewrite = %v", got)
	}
	txn.Set("b", []byte("3")) // rewrite: a later write must show
	txn.Delete("c")
	changes := txn.Changes()
	if len(changes) != 3 {
		t.Fatalf("changes = %v", changes)
	}
	for i, want := range []struct{ key, after string }{{"b", "3"}, {"a", "2"}, {"c", ""}} {
		c := changes[i]
		if c.Key != want.key || string(c.After) != want.after {
			t.Fatalf("change %d = %q→%q, want %q→%q", i, c.Key, c.After, want.key, want.after)
		}
		if c.Before != nil {
			t.Fatalf("change %d (%s) carries a before-image %q", i, c.Key, c.Before)
		}
	}
	if !changes[2].IsDelete() {
		t.Fatal("delete of c lost")
	}
	if err := txn.Prepare(); err != nil {
		t.Fatal(err)
	}
	// Prepare froze the list: Commit and the commit pipeline reuse it.
	if allocs := testing.AllocsPerRun(10, func() { txn.Changes() }); allocs != 0 {
		t.Fatalf("Changes after Prepare allocates %v times", allocs)
	}
	txn.Rollback()
}

// TestCommittedRowsOwnTheirBytes: commit installs a change's After without
// a copy, so each producer must hand over bytes nothing else writes.
// Mutating, after commit, the buffer passed to Set, a Get result or the
// payload a replica applied must leave the committed rows unchanged.
func TestCommittedRowsOwnTheirBytes(t *testing.T) {
	dir := t.TempDir()
	e := openTestEngine(t, dir)
	commit := func(txn *Txn, idx uint64) {
		t.Helper()
		if err := txn.Prepare(); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(opid.OpID{Term: 1, Index: idx}); err != nil {
			t.Fatal(err)
		}
	}
	scribble := func(b []byte) {
		for i := range b {
			b[i] ^= 0xff
		}
	}

	buf := []byte("set-value")
	txn := e.Begin()
	if err := txn.Set("set", buf); err != nil {
		t.Fatal(err)
	}
	commit(txn, 1)
	scribble(buf)

	got, _ := e.Get("set")
	scribble(got)

	// A replica stages the payload the way mysql's applier does.
	payload := EncodeTxnPayload([]RowChange{{Key: "replica", After: []byte("replica-value")}})
	txn, err := e.StagePayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(opid.OpID{Term: 1, Index: 2}); err != nil {
		t.Fatal(err)
	}
	scribble(payload)

	want := map[string]string{"set": "set-value", "replica": "replica-value"}
	check := func(e *Engine, when string) {
		t.Helper()
		for k, v := range want {
			if got, ok := e.Get(k); !ok || string(got) != v {
				t.Fatalf("%s: row %s = %q, want %q", when, k, got, v)
			}
		}
	}
	check(e, "after the mutations")
	// Recovery installs the WAL's decoded changes the same way.
	e.Close()
	check(openTestEngine(t, dir), "after reopen")
}

// TestSetEmptyValueKeepsTheRow: an empty value is a row, not a delete —
// after commit, on a replica that stages the payload, and after
// the engine recovers from its WAL.
func TestSetEmptyValueKeepsTheRow(t *testing.T) {
	dir := t.TempDir()
	e := openTestEngine(t, dir)
	mustCommit(t, e, opid.OpID{Term: 1, Index: 1}, map[string]string{"k": "v"})
	txn := e.Begin()
	if err := txn.Set("k", []byte{}); err != nil {
		t.Fatal(err)
	}
	payload := EncodeTxnPayload(txn.Changes())
	if err := txn.Prepare(); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(opid.OpID{Term: 1, Index: 2}); err != nil {
		t.Fatal(err)
	}
	check := func(e *Engine, when string) {
		t.Helper()
		if v, ok := e.Get("k"); !ok || len(v) != 0 {
			t.Fatalf("%s: Get = %q, %v; want an empty row", when, v, ok)
		}
		if n := e.RowCount(); n != 1 {
			t.Fatalf("%s: RowCount = %d, want 1", when, n)
		}
	}
	check(e, "after commit")

	replica := openTestEngine(t, "")
	mustCommit(t, replica, opid.OpID{Term: 1, Index: 1}, map[string]string{"k": "v"})
	txn, err := replica.StagePayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	if c := txn.Changes()[0]; c.IsDelete() {
		t.Fatalf("staged change %+v is a delete", c)
	}
	if err := txn.Commit(opid.OpID{Term: 1, Index: 2}); err != nil {
		t.Fatal(err)
	}
	check(replica, "on the replica")

	e.Close()
	check(openTestEngine(t, dir), "after reopen")
}

// TestMinimalUpdatePayloadSize pins a one-row update's payload: count, the
// key, the nil before-image marker and the after-image, nothing more.
func TestMinimalUpdatePayloadSize(t *testing.T) {
	e := openTestEngine(t, "")
	const key = "sbtest1:00000042"
	mustCommit(t, e, opid.OpID{Term: 1, Index: 1}, map[string]string{key: string(make([]byte, 500))})
	txn := e.Begin()
	defer txn.Rollback()
	if err := txn.Set(key, bytes.Repeat([]byte{1}, 500)); err != nil {
		t.Fatal(err)
	}
	want := 4 + (4 + len(key)) + 4 + (4 + 500)
	if got := len(EncodeChanges(txn.Changes())); got != want {
		t.Fatalf("one-row 500-byte update encodes to %d bytes, want %d", got, want)
	}
}

func TestPrepareCommitLifecycleErrors(t *testing.T) {
	e := openTestEngine(t, "")
	txn := e.Begin()
	txn.Set("a", []byte("1"))
	if err := txn.Commit(opid.OpID{Term: 1, Index: 1}); err == nil {
		t.Fatal("commit before prepare succeeded")
	}
	txn.Prepare()
	if err := txn.Prepare(); err == nil {
		t.Fatal("double prepare succeeded")
	}
	if err := txn.Set("b", []byte("2")); err == nil {
		t.Fatal("write after prepare succeeded")
	}
	txn.Commit(opid.OpID{Term: 1, Index: 1})
	if err := txn.Commit(opid.OpID{Term: 1, Index: 2}); !errors.Is(err, ErrTxnFinished) {
		t.Fatalf("double commit err = %v", err)
	}
	if err := txn.Rollback(); !errors.Is(err, ErrTxnFinished) {
		t.Fatalf("rollback after commit err = %v", err)
	}
}

func TestRecoveryReplaysCommitted(t *testing.T) {
	dir := t.TempDir()
	e := openTestEngine(t, dir)
	mustCommit(t, e, opid.OpID{Term: 1, Index: 1}, map[string]string{"a": "1"})
	mustCommit(t, e, opid.OpID{Term: 1, Index: 2}, map[string]string{"b": "2"})
	e.Close()

	e2 := openTestEngine(t, dir)
	for k, want := range map[string]string{"a": "1", "b": "2"} {
		if v, ok := e2.Get(k); !ok || string(v) != want {
			t.Fatalf("recovered %s = %q %v", k, v, ok)
		}
	}
	if e2.LastCommitted() != (opid.OpID{Term: 1, Index: 2}) {
		t.Fatalf("recovered LastCommitted = %v", e2.LastCommitted())
	}
}

func TestRecoveryRollsBackPrepared(t *testing.T) {
	dir := t.TempDir()
	e := openTestEngine(t, dir)
	mustCommit(t, e, opid.OpID{Term: 1, Index: 1}, map[string]string{"a": "committed"})
	txn := e.Begin()
	txn.Set("b", []byte("prepared-only"))
	if err := txn.Prepare(); err != nil {
		t.Fatal(err)
	}
	e.Sync()
	e.Crash()

	e2 := openTestEngine(t, dir)
	if _, ok := e2.Get("b"); ok {
		t.Fatal("prepared-but-uncommitted txn applied by recovery")
	}
	if v, _ := e2.Get("a"); string(v) != "committed" {
		t.Fatalf("committed txn lost: %q", v)
	}
	if e2.PreparedCount() != 0 {
		t.Fatalf("PreparedCount = %d", e2.PreparedCount())
	}
	// The rolled-back txn's locks are gone; writes to b succeed.
	mustCommit(t, e2, opid.OpID{Term: 2, Index: 2}, map[string]string{"b": "retry"})
}

func TestRecoveryIdempotentAfterRollbackRecord(t *testing.T) {
	dir := t.TempDir()
	e := openTestEngine(t, dir)
	txn := e.Begin()
	txn.Set("x", []byte("1"))
	txn.Prepare()
	txn.Rollback()
	e.Close()
	e2 := openTestEngine(t, dir)
	if _, ok := e2.Get("x"); ok {
		t.Fatal("rolled-back txn applied")
	}
}

func TestRollbackPreparedAbortsInFlight(t *testing.T) {
	e := openTestEngine(t, "")
	for i := 0; i < 5; i++ {
		txn := e.Begin()
		txn.Set(fmt.Sprintf("k%d", i), []byte("v"))
		if err := txn.Prepare(); err != nil {
			t.Fatal(err)
		}
	}
	if e.PreparedCount() != 5 {
		t.Fatalf("PreparedCount = %d", e.PreparedCount())
	}
	if err := e.RollbackPrepared(); err != nil {
		t.Fatal(err)
	}
	if e.PreparedCount() != 0 {
		t.Fatalf("PreparedCount after rollback = %d", e.PreparedCount())
	}
	if e.RowCount() != 0 {
		t.Fatal("aborted writes applied")
	}
}

func TestChecksumMatchesForSameContent(t *testing.T) {
	a := openTestEngine(t, "")
	b := openTestEngine(t, "")
	for i := 0; i < 10; i++ {
		kv := map[string]string{fmt.Sprintf("k%d", i): fmt.Sprintf("v%d", i)}
		mustCommit(t, a, opid.OpID{Term: 1, Index: uint64(i + 1)}, kv)
		mustCommit(t, b, opid.OpID{Term: 1, Index: uint64(i + 1)}, kv)
	}
	if a.Checksum() != b.Checksum() {
		t.Fatal("checksums differ for identical content")
	}
	mustCommit(t, a, opid.OpID{Term: 1, Index: 11}, map[string]string{"extra": "x"})
	if a.Checksum() == b.Checksum() {
		t.Fatal("checksums equal for different content")
	}
}

func TestConcurrentDisjointTxns(t *testing.T) {
	e := openTestEngine(t, "")
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				txn := e.Begin()
				key := fmt.Sprintf("g%d-k%d", g, i)
				if err := txn.Set(key, []byte("v")); err != nil {
					errs <- err
					return
				}
				if err := txn.Prepare(); err != nil {
					errs <- err
					return
				}
				if err := txn.Commit(opid.OpID{Term: 1, Index: uint64(g*100 + i)}); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if e.RowCount() != 16*20 {
		t.Fatalf("RowCount = %d", e.RowCount())
	}
}

func TestConcurrentContendedKey(t *testing.T) {
	e, err := Open(Options{Dir: t.TempDir(), LockWaitTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				txn := e.Begin()
				if err := txn.Set("hot", []byte{byte(g)}); err != nil {
					t.Error(err)
					return
				}
				if err := txn.Prepare(); err != nil {
					t.Error(err)
					return
				}
				if err := txn.Commit(opid.OpID{Term: 1, Index: 1}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if _, ok := e.Get("hot"); !ok {
		t.Fatal("hot key missing")
	}
}

func TestEngineClosedRejectsOps(t *testing.T) {
	e := openTestEngine(t, "")
	txn := e.Begin()
	txn.Set("a", []byte("1"))
	e.Crash()
	if err := txn.Prepare(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Prepare on crashed engine: %v", err)
	}
	t2 := e.Begin()
	if err := t2.Set("b", []byte("2")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Set on crashed engine: %v", err)
	}
}

func TestEncodeDecodeChangesRoundTrip(t *testing.T) {
	changes := []RowChange{
		{Key: "insert", Before: nil, After: []byte("new")},
		{Key: "update", Before: []byte("old"), After: []byte("new")},
		{Key: "delete", Before: []byte("old"), After: nil},
		{Key: "", Before: []byte{}, After: []byte{}},
	}
	got, err := DecodeChanges(EncodeChanges(changes))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(changes) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range changes {
		w, g := changes[i], got[i]
		if w.Key != g.Key || !bytes.Equal(w.Before, g.Before) || !bytes.Equal(w.After, g.After) {
			t.Fatalf("change %d: %+v vs %+v", i, w, g)
		}
		if (w.Before == nil) != (g.Before == nil) || (w.After == nil) != (g.After == nil) {
			t.Fatalf("change %d nil-ness lost", i)
		}
	}
}

func TestDecodeChangesErrors(t *testing.T) {
	for _, bad := range [][]byte{
		nil,
		{0, 0, 0},
		{0, 0, 0, 2, 0, 0, 0, 1, 'x'}, // truncated
		append(EncodeChanges([]RowChange{{Key: "a"}}), 0xff), // trailing bytes
		{0xff, 0xff, 0xff, 0xff},                             // absurd count
		// a nil marker where a key goes: no encoder writes one, and it
		// would decode to "" and re-encode differently
		{0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0},
	} {
		if _, err := DecodeChanges(bad); err == nil {
			t.Errorf("DecodeChanges(%v) succeeded", bad)
		}
	}
}

func TestChangesRoundTripProperty(t *testing.T) {
	f := func(keys [][]byte, vals [][]byte) bool {
		var changes []RowChange
		for i, k := range keys {
			c := RowChange{Key: string(k)}
			if i < len(vals) {
				c.After = vals[i]
			}
			changes = append(changes, c)
		}
		got, err := DecodeChanges(EncodeChanges(changes))
		if err != nil {
			return false
		}
		if len(got) != len(changes) {
			return false
		}
		for i := range changes {
			if got[i].Key != changes[i].Key || !bytes.Equal(got[i].After, changes[i].After) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSyncDirtyTrackingCoalesces(t *testing.T) {
	e := openTestEngine(t, "")
	s0, n0 := e.SyncStats()
	if s0 != 0 || n0 != 0 {
		t.Fatalf("fresh engine stats = %d/%d", s0, n0)
	}

	// Clean WAL: Sync is a free no-op.
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	if s, n := e.SyncStats(); s != 0 || n != 1 {
		t.Fatalf("clean sync stats = %d/%d, want 0/1", s, n)
	}

	// A commit dirties the WAL; the next Sync performs a real fsync and
	// the one after that no-ops again.
	mustCommit(t, e, opid.OpID{Term: 1, Index: 1}, map[string]string{"a": "1"})
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	if s, n := e.SyncStats(); s != 1 || n != 1 {
		t.Fatalf("post-commit sync stats = %d/%d, want 1/1", s, n)
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	if s, n := e.SyncStats(); s != 1 || n != 2 {
		t.Fatalf("repeat sync stats = %d/%d, want 1/2", s, n)
	}

	// FlushWAL pushes the user-space buffer without an fsync, so it must
	// NOT mark the WAL clean: the records are in the page cache only, and
	// a Sync afterwards still has work to do.
	mustCommit(t, e, opid.OpID{Term: 1, Index: 2}, map[string]string{"b": "2"})
	if _, err := e.FlushWAL(); err != nil {
		t.Fatal(err)
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	if s, _ := e.SyncStats(); s != 2 {
		t.Fatalf("sync after FlushWAL performed %d fsyncs, want 2", s)
	}
}

// A torn record at the WAL's end is cut off at Open, so records committed
// after the reopen follow the last good record and survive the next
// recovery instead of hiding behind the damage.
func TestRecoveryTrimsTornTailBeforeAppending(t *testing.T) {
	dir := t.TempDir()
	e := openTestEngine(t, dir)
	mustCommit(t, e, opid.OpID{Term: 1, Index: 1}, map[string]string{"a": "1"})
	e.Close()

	torn := encodeWALRecord(&walRecord{typ: walPrepare, txnID: 9, changes: []RowChange{{Key: "t", After: []byte("x")}}})[:7]
	f, err := os.OpenFile(filepath.Join(dir, "engine.wal"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	e2 := openTestEngine(t, dir)
	mustCommit(t, e2, opid.OpID{Term: 1, Index: 2}, map[string]string{"b": "2"})
	e2.Close()

	e3 := openTestEngine(t, dir)
	if v, ok := e3.Get("b"); !ok || string(v) != "2" {
		t.Fatalf("row committed after the torn tail: %q %v", v, ok)
	}
	if got, want := e3.LastCommitted(), (opid.OpID{Term: 1, Index: 2}); got != want {
		t.Fatalf("LastCommitted = %v, want %v", got, want)
	}
}

// A damaged record with a decodable record after it is not a torn tail:
// Open refuses with an ErrCorrupt naming the file and the record's offset
// instead of recovering a shorter state, and leaves the WAL as it was.
func TestRecoveryRefusesCorruptRecordBeforeGoodOnes(t *testing.T) {
	dir := t.TempDir()
	e := openTestEngine(t, dir)
	mustCommit(t, e, opid.OpID{Term: 1, Index: 1}, map[string]string{"a": "1"})
	mustCommit(t, e, opid.OpID{Term: 1, Index: 2}, map[string]string{"b": "2"})
	e.Close()

	path := filepath.Join(dir, "engine.wal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Four records: prepare/commit of each transaction. Flip a byte
	// inside the second.
	var offsets []int
	for rest := data; len(rest) > 0; {
		offsets = append(offsets, len(data)-len(rest))
		_, next, ok := decodeWALRecord(rest)
		if !ok {
			t.Fatalf("fixture WAL does not decode at offset %d", len(data)-len(rest))
		}
		rest = next
	}
	if len(offsets) != 4 {
		t.Fatalf("fixture WAL has %d records, want 4", len(offsets))
	}
	data[offsets[1]+6] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if e2, err := Open(Options{Dir: dir}); err == nil {
		e2.Close()
		t.Fatalf("Open succeeded over a corrupt record (LastCommitted %v)", e2.LastCommitted())
	} else {
		var ce *ErrCorrupt
		if !errors.As(err, &ce) || ce.File != path || ce.Offset != int64(offsets[1]) {
			t.Fatalf("Open error = %v, want ErrCorrupt in %s at offset %d", err, path, offsets[1])
		}
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, data) {
		t.Fatal("refused Open changed the WAL on disk")
	}
}
