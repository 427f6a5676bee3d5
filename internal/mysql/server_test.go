package mysql

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"myraft/internal/binlog"
	"myraft/internal/gtid"
	"myraft/internal/logstore"
	"myraft/internal/opid"
	"myraft/internal/storage"
	"myraft/internal/wire"
)

// fakeReplicator gives unit tests direct control over consensus: appended
// entries go straight into the server's own log (as the plugin would do
// through Raft) and commit either instantly or when released.
type fakeReplicator struct {
	s *Server

	mu         sync.Mutex
	term       uint64
	next       uint64
	commit     uint64
	manual     bool // when true, commits advance only via release
	waiters    []chan struct{}
	proposeErr error
	failErr    error // fails pending and future WaitCommitted calls

	// Durability control. By default WaitDurableCommit fsyncs inline; with
	// manualDurable it parks until releaseDurable covers the index or
	// failDurable fails everything above the durable cursor, as the raft
	// log writer and a truncation would.
	manualDurable bool
	durable       uint64
	durableErr    error
	durableParked uint64 // highest index a durability wait has parked on

	// proposeGate, while non-nil, parks ProposeTransactionBatch (the
	// flusher) until closed; proposeParked reports a caller parked there.
	proposeGate   chan struct{}
	proposeParked bool
	// partialAfter, when > 0, makes the next batch longer than it append
	// only that many entries and return partialErr (one shot).
	partialAfter int
	partialErr   error
}

func newFakeReplicator(s *Server) *fakeReplicator {
	last := s.Log().LastOpID()
	return &fakeReplicator{s: s, term: 1, next: last.Index + 1, commit: last.Index}
}

func (f *fakeReplicator) ProposeTransaction(payload []byte, g gtid.GTID) (opid.OpID, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.proposeErr != nil {
		return opid.Zero, f.proposeErr
	}
	op := opid.OpID{Term: f.term, Index: f.next}
	e := &wire.LogEntry{OpID: op, Kind: 1, HasGTID: true, GTID: g, Payload: payload}
	if err := (logstore.BinlogStore{Log: f.s.Log()}).Append(e); err != nil {
		return opid.Zero, err
	}
	f.next++
	if !f.manual {
		f.commit = op.Index
	}
	return op, nil
}

func (f *fakeReplicator) ProposeTransactionBatch(reqs []TxnProposal) ([]opid.OpID, error) {
	f.mu.Lock()
	if gate := f.proposeGate; gate != nil {
		f.proposeParked = true
		f.mu.Unlock()
		<-gate
		f.mu.Lock()
		f.proposeParked = false
	}
	defer f.mu.Unlock()
	var ops []opid.OpID
	for i, r := range reqs {
		if f.proposeErr != nil {
			return ops, f.proposeErr
		}
		if f.partialAfter > 0 && len(reqs) > f.partialAfter && i == f.partialAfter {
			f.partialAfter = 0
			return ops, f.partialErr
		}
		op := opid.OpID{Term: f.term, Index: f.next}
		e := &wire.LogEntry{OpID: op, Kind: 1, HasGTID: true, GTID: r.GTID, Payload: r.Payload}
		if err := (logstore.BinlogStore{Log: f.s.Log()}).Append(e); err != nil {
			return ops, err
		}
		f.next++
		if !f.manual {
			f.commit = op.Index
		}
		ops = append(ops, op)
	}
	return ops, nil
}

func (f *fakeReplicator) ProposeRotate() (opid.OpID, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	op := opid.OpID{Term: f.term, Index: f.next}
	e := &wire.LogEntry{OpID: op, Kind: 4}
	if err := (logstore.BinlogStore{Log: f.s.Log()}).Append(e); err != nil {
		return opid.Zero, err
	}
	f.next++
	if !f.manual {
		f.commit = op.Index
	}
	return op, nil
}

func (f *fakeReplicator) WaitCommitted(ctx context.Context, index uint64) error {
	for {
		f.mu.Lock()
		if f.failErr != nil && f.commit < index {
			err := f.failErr
			f.mu.Unlock()
			return err
		}
		ok := f.commit >= index
		var ch chan struct{}
		if !ok {
			ch = make(chan struct{})
			f.waiters = append(f.waiters, ch)
		}
		f.mu.Unlock()
		if ok {
			return nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// fail aborts pending and future consensus waits, as the raft layer does
// on demotion or shutdown.
func (f *fakeReplicator) fail(err error) {
	f.wake(func() { f.failErr = err })
}

// WaitDurableCommit waits for durability, then for the commit marker.
func (f *fakeReplicator) WaitDurableCommit(ctx context.Context, index uint64) error {
	if err := f.waitDurable(ctx, index); err != nil {
		return err
	}
	return f.WaitCommitted(ctx, index)
}

// waitDurable syncs the binlog inline by default: the fake has no async
// writer, so "durable" is simply "fsynced now". In manualDurable mode it
// parks until the test moves the durable cursor.
func (f *fakeReplicator) waitDurable(ctx context.Context, index uint64) error {
	for {
		f.mu.Lock()
		if !f.manualDurable {
			f.mu.Unlock()
			return f.s.Log().Sync()
		}
		if f.durable >= index {
			f.mu.Unlock()
			return nil
		}
		if f.durableErr != nil {
			err := f.durableErr
			f.mu.Unlock()
			return err
		}
		if index > f.durableParked {
			f.durableParked = index
		}
		ch := make(chan struct{})
		f.waiters = append(f.waiters, ch)
		f.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// releaseDurable fsyncs the binlog and advances the durable cursor
// (manualDurable mode), waking parked waits.
func (f *fakeReplicator) releaseDurable(index uint64) {
	_ = f.s.Log().Sync()
	f.wake(func() {
		if index > f.durable {
			f.durable = index
		}
	})
}

// failDurable fails pending and future durability waits above the durable
// cursor, as a truncation of the unsynced tail does.
func (f *fakeReplicator) failDurable(err error) {
	f.wake(func() { f.durableErr = err })
}

// wake applies change under the lock and wakes every parked wait to
// re-evaluate.
func (f *fakeReplicator) wake(change func()) {
	f.mu.Lock()
	change()
	ws := f.waiters
	f.waiters = nil
	f.mu.Unlock()
	for _, ch := range ws {
		close(ch)
	}
}

// parkedOnDurable reports whether a durability wait has parked on index
// (or beyond).
func (f *fakeReplicator) parkedOnDurable(index uint64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.durableParked >= index
}

// gatePropose parks the next ProposeTransactionBatch until the returned
// function is called.
func (f *fakeReplicator) gatePropose() (open func()) {
	gate := make(chan struct{})
	f.mu.Lock()
	f.proposeGate = gate
	f.mu.Unlock()
	return func() {
		f.mu.Lock()
		f.proposeGate = nil
		f.mu.Unlock()
		close(gate)
	}
}

func (f *fakeReplicator) CommitIndex() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.commit
}

// lastIndex returns the highest proposed index.
func (f *fakeReplicator) lastIndex() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.next - 1
}

// release advances the commit marker (manual mode) and signals waiters
// and the server's applier gate.
func (f *fakeReplicator) release(index uint64) {
	f.wake(func() {
		if index > f.commit {
			f.commit = index
		}
	})
	f.s.OnCommitAdvance(index)
}

// newPrimary builds a primary server with a fake replicator.
func newPrimary(t *testing.T) (*Server, *fakeReplicator) {
	t.Helper()
	s, err := NewServer(Options{ID: "srv-1", Dir: t.TempDir(), StartAsPrimary: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	f := newFakeReplicator(s)
	s.AttachReplicator(f)
	return s, f
}

func TestWriteCommitsThroughPipeline(t *testing.T) {
	s, _ := newPrimary(t)
	ctx := context.Background()
	op, err := s.Set(ctx, "k", []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	if op.IsZero() {
		t.Fatal("zero opid")
	}
	v, ok := s.Read("k")
	if !ok || string(v) != "v" {
		t.Fatalf("read = %q %v", v, ok)
	}
	// The transaction landed in the binlog with its GTID.
	if !s.GTIDExecuted().Contains(gtid.GTID{Source: "uuid-srv-1", ID: 1}) {
		t.Fatalf("gtid missing: %s", s.GTIDExecuted())
	}
	if s.Engine().LastCommitted() != op {
		t.Fatalf("engine opid = %v, want %v", s.Engine().LastCommitted(), op)
	}
}

func TestWriteBlocksUntilConsensus(t *testing.T) {
	s, f := newPrimary(t)
	f.manual = true
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	done := make(chan error, 1)
	var op opid.OpID
	go func() {
		var err error
		op, err = s.Set(ctx, "k", []byte("v"))
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("write finished before consensus: %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	if _, ok := s.Read("k"); ok {
		t.Fatal("value visible before consensus commit")
	}
	f.release(f.lastIndex())
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if op.IsZero() {
		t.Fatal("zero opid")
	}
	if _, ok := s.Read("k"); !ok {
		t.Fatal("value missing after consensus commit")
	}
}

func TestReadOnlyRejectsWrites(t *testing.T) {
	s, _ := newPrimary(t)
	s.DisableWrites()
	if _, err := s.Set(context.Background(), "k", []byte("v")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("err = %v", err)
	}
	s.EnableWrites()
	if _, err := s.Set(context.Background(), "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
}

func TestWriteWithoutReplicator(t *testing.T) {
	s, err := NewServer(Options{ID: "x", Dir: t.TempDir(), StartAsPrimary: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Set(context.Background(), "k", []byte("v")); !errors.Is(err, ErrNoReplicator) {
		t.Fatalf("err = %v", err)
	}
}

func TestFailedConsensusRollsBackPrepared(t *testing.T) {
	s, f := newPrimary(t)
	f.manual = true
	// The client gives up quickly, but the pipeline still owns the
	// prepared transaction.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := s.Set(ctx, "k", []byte("v"))
	if err == nil {
		t.Fatal("write succeeded without consensus")
	}
	if s.Engine().PreparedCount() != 1 {
		t.Fatalf("pipeline should still own the prepared txn: %d", s.Engine().PreparedCount())
	}
	// Consensus definitively fails (as on demotion): the pipeline rolls
	// the transaction back.
	f.fail(errors.New("leadership lost"))
	deadline := time.Now().Add(5 * time.Second)
	for s.Engine().PreparedCount() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.Engine().PreparedCount() != 0 {
		t.Fatalf("prepared txns leaked: %d", s.Engine().PreparedCount())
	}
	if _, ok := s.Read("k"); ok {
		t.Fatal("aborted value visible")
	}
}

func TestGroupCommitBatchesConcurrentWriters(t *testing.T) {
	s, _ := newPrimary(t)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := s.Set(ctx, fmt.Sprintf("g%d-k%d", g, i), []byte("v")); err != nil {
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
	if s.Engine().RowCount() != 320 {
		t.Fatalf("rows = %d", s.Engine().RowCount())
	}
	// GTIDs are dense 1..320.
	if !s.GTIDExecuted().Contains(gtid.GTID{Source: "uuid-srv-1", ID: 320}) {
		t.Fatalf("gtid set: %s", s.GTIDExecuted())
	}
}

func TestMultiRowTransactionAtomicity(t *testing.T) {
	s, _ := newPrimary(t)
	ctx := context.Background()
	_, err := s.ExecuteWrite(ctx, func(txn *storage.Txn) error {
		if err := txn.Set("debit", []byte("-100")); err != nil {
			return err
		}
		return txn.Set("credit", []byte("+100"))
	})
	if err != nil {
		t.Fatal(err)
	}
	// Mutator failure aborts everything.
	_, err = s.ExecuteWrite(ctx, func(txn *storage.Txn) error {
		txn.Set("partial", []byte("x"))
		return errors.New("business rule violated")
	})
	if err == nil {
		t.Fatal("failing mutator committed")
	}
	if _, ok := s.Read("partial"); ok {
		t.Fatal("partial write visible")
	}
}

func TestFlushBinaryLogsRotates(t *testing.T) {
	s, _ := newPrimary(t)
	ctx := context.Background()
	s.Set(ctx, "a", []byte("1"))
	if err := s.FlushBinaryLogs(ctx); err != nil {
		t.Fatal(err)
	}
	s.Set(ctx, "b", []byte("2"))
	if got := len(s.BinlogFiles()); got < 2 {
		t.Fatalf("files = %d", got)
	}
}

// replicaHarness builds a replica whose relay log is fed directly, as the
// Raft plugin would on a follower.
type replicaHarness struct {
	s    *Server
	f    *fakeReplicator
	next uint64
}

func newReplica(t *testing.T) *replicaHarness {
	t.Helper()
	return newReplicaAt(t, t.TempDir())
}

// newReplicaAt builds the replica in a caller-owned directory so crash
// tests can reopen the same state.
func newReplicaAt(t *testing.T, dir string) *replicaHarness {
	t.Helper()
	s, err := NewServer(Options{ID: "replica-1", Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	f := newFakeReplicator(s)
	f.manual = true
	s.AttachReplicator(f)
	return &replicaHarness{s: s, f: f, next: 1}
}

// feed appends one transaction to the relay log (uncommitted).
func (r *replicaHarness) feed(t *testing.T, changes []storage.RowChange) opid.OpID {
	t.Helper()
	op := opid.OpID{Term: 1, Index: r.next}
	e := &binlog.Entry{
		OpID:    op,
		Type:    binlog.EntryNormal,
		HasGTID: true,
		GTID:    gtid.GTID{Source: "primary-uuid", ID: int64(r.next)},
		Payload: storage.EncodeChanges(changes),
	}
	if err := r.s.Log().Append(e); err != nil {
		t.Fatal(err)
	}
	r.f.mu.Lock()
	r.f.next = r.next + 1
	r.f.mu.Unlock()
	r.next++
	return op
}

func TestApplierWaitsForCommitMarker(t *testing.T) {
	r := newReplica(t)
	op := r.feed(t, []storage.RowChange{{Key: "k", After: []byte("v")}})
	time.Sleep(30 * time.Millisecond)
	if _, ok := r.s.Read("k"); ok {
		t.Fatal("applier applied before commit marker")
	}
	r.f.release(op.Index)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if v, ok := r.s.Read("k"); ok && string(v) == "v" {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("applier never applied committed entry")
}

func TestApplierAppliesInOrder(t *testing.T) {
	r := newReplica(t)
	var last opid.OpID
	for i := 0; i < 20; i++ {
		last = r.feed(t, []storage.RowChange{
			{Key: "counter", After: []byte(fmt.Sprintf("%d", i))},
			{Key: fmt.Sprintf("row%d", i), After: []byte("x")},
		})
	}
	r.f.release(last.Index)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if r.s.ApplyStatus().Position >= last.Index {
			break
		}
		time.Sleep(time.Millisecond)
	}
	v, ok := r.s.Read("counter")
	if !ok || string(v) != "19" {
		t.Fatalf("counter = %q %v", v, ok)
	}
	if r.s.Engine().RowCount() != 21 {
		t.Fatalf("rows = %d", r.s.Engine().RowCount())
	}
	if r.s.Engine().LastCommitted() != last {
		t.Fatalf("engine cursor = %v, want %v", r.s.Engine().LastCommitted(), last)
	}
}

func TestPromotionCatchesUpRewiresAndEnables(t *testing.T) {
	r := newReplica(t)
	op := r.feed(t, []storage.RowChange{{Key: "k", After: []byte("v")}})
	// Raft appends the promotion No-Op.
	noop := opid.OpID{Term: 2, Index: r.next}
	r.s.Log().Append(&binlog.Entry{OpID: noop, Type: binlog.EntryNoOp})
	r.next++
	r.f.mu.Lock()
	r.f.next = r.next
	r.f.term = 2
	r.f.mu.Unlock()
	r.f.release(noop.Index)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := r.s.PromoteToPrimary(ctx, noop.Index); err != nil {
		t.Fatal(err)
	}
	r.s.EnableWrites()
	// Data applied before the cutover.
	if v, ok := r.s.Read("k"); !ok || string(v) != "v" {
		t.Fatalf("catch-up missed: %q %v", v, ok)
	}
	_ = op
	// Log persona rewired to binlog.
	if got := r.s.Log().Persona(); got != binlog.PersonaBinlog {
		t.Fatalf("persona = %v", got)
	}
	// Client writes accepted now (consensus back to auto mode).
	r.f.mu.Lock()
	r.f.manual = false
	r.f.mu.Unlock()
	if _, err := r.s.Set(ctx, "post", []byte("1")); err != nil {
		t.Fatal(err)
	}
}

func TestDemotionAbortsDisablesRewiresRestartsApplier(t *testing.T) {
	s, f := newPrimary(t)
	f.manual = true
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// A write stuck waiting for consensus. Demote only once it has been
	// proposed: the release below covers f.lastIndex(), and a write the
	// flush stage proposed after that release would wait forever.
	before := f.lastIndex()
	stuck := make(chan error, 1)
	go func() {
		_, err := s.Set(ctx, "inflight", []byte("v"))
		stuck <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for f.lastIndex() == before {
		if time.Now().After(deadline) {
			t.Fatal("write never proposed")
		}
		time.Sleep(time.Millisecond)
	}
	if s.Engine().PreparedCount() == 0 {
		t.Fatal("proposed write is not prepared")
	}

	if err := s.DemoteToReplica(); err != nil {
		t.Fatal(err)
	}
	if !s.IsReadOnly() {
		t.Fatal("writes not disabled")
	}
	if got := s.Log().Persona(); got != binlog.PersonaRelay {
		t.Fatalf("persona = %v", got)
	}
	if s.Engine().PreparedCount() != 0 {
		t.Fatal("in-flight prepared txn not aborted")
	}
	if _, err := s.Set(ctx, "rejected", []byte("v")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("err = %v", err)
	}
	// Release consensus (as the real raft layer would fail its waiters on
	// demotion); the stuck writer must surface an error because its
	// transaction was already rolled back.
	f.release(f.lastIndex())
	// The stuck writer unblocks with an error (its txn was rolled back).
	select {
	case err := <-stuck:
		if err == nil {
			t.Fatal("in-flight write reported success after demotion")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight writer still stuck")
	}
}

func TestCrashRecoveryRollsBackTornWrite(t *testing.T) {
	dir := t.TempDir()
	s, err := NewServer(Options{ID: "c", Dir: dir, StartAsPrimary: true})
	if err != nil {
		t.Fatal(err)
	}
	f := newFakeReplicator(s)
	s.AttachReplicator(f)
	ctx := context.Background()
	if _, err := s.Set(ctx, "durable", []byte("1")); err != nil {
		t.Fatal(err)
	}
	s.Log().Sync()
	s.Engine().Sync()
	// A write whose consensus never completes, then crash.
	f.manual = true
	go s.Set(ctx, "torn", []byte("2"))
	deadline := time.Now().Add(5 * time.Second)
	for s.Engine().PreparedCount() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	s.Crash()

	// Restart: recovery rolls the prepared txn back (§A.2 case 1/2).
	s2, err := NewServer(Options{ID: "c", Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if v, ok := s2.Read("durable"); !ok || string(v) != "1" {
		t.Fatalf("durable data lost: %q %v", v, ok)
	}
	if _, ok := s2.Read("torn"); ok {
		t.Fatal("torn write survived recovery")
	}
	if s2.Engine().PreparedCount() != 0 {
		t.Fatal("prepared txns after recovery")
	}
}

func TestCrashedServerRejectsOperations(t *testing.T) {
	s, _ := newPrimary(t)
	s.Crash()
	if _, err := s.Set(context.Background(), "k", []byte("v")); err == nil {
		t.Fatal("write on crashed server succeeded")
	}
}

func TestReplicaStatusReflectsRole(t *testing.T) {
	r := newReplica(t)
	if !r.s.IsReadOnly() || r.s.Log().Persona() != binlog.PersonaRelay || !r.s.ApplyStatus().Running {
		t.Fatalf("replica: read-only %v, persona %v, apply %+v", r.s.IsReadOnly(), r.s.Log().Persona(), r.s.ApplyStatus())
	}
	// Feed + commit a transaction; the status advances.
	op := r.feed(t, []storage.RowChange{{Key: "k", After: []byte("v")}})
	r.f.release(op.Index)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if r.s.ApplyStatus().Position >= op.Index {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if st := r.s.ApplyStatus(); st.Position < op.Index || r.s.Engine().LastCommitted() != op {
		t.Fatalf("status after apply = %+v, engine at %v", st, r.s.Engine().LastCommitted())
	}
	if r.s.GTIDExecuted().String() == "" || r.s.Log().LastOpID() != op {
		t.Fatalf("log info: gtids %q, tail %v", r.s.GTIDExecuted(), r.s.Log().LastOpID())
	}

	// Promote: persona flips, applier stops, writes open.
	noop := opid.OpID{Term: 2, Index: r.next}
	r.s.Log().Append(&binlog.Entry{OpID: noop, Type: binlog.EntryNoOp})
	r.f.mu.Lock()
	r.f.next = r.next + 1
	r.f.term = 2
	r.f.mu.Unlock()
	r.f.release(noop.Index)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := r.s.PromoteToPrimary(ctx, noop.Index); err != nil {
		t.Fatal(err)
	}
	r.s.EnableWrites()
	if r.s.IsReadOnly() || r.s.Log().Persona() != binlog.PersonaBinlog || r.s.ApplyStatus().Running {
		t.Fatalf("primary: read-only %v, persona %v, apply %+v", r.s.IsReadOnly(), r.s.Log().Persona(), r.s.ApplyStatus())
	}
}

func TestLegacyReplicationCommandsDisallowed(t *testing.T) {
	s, _ := newPrimary(t)
	for name, fn := range map[string]func() error{
		"CHANGE MASTER TO":  s.ChangeMaster,
		"RESET MASTER":      s.ResetMaster,
		"RESET REPLICATION": s.ResetReplication,
	} {
		if err := fn(); !errors.Is(err, ErrManagedByRaft) {
			t.Errorf("%s: err = %v, want ErrManagedByRaft", name, err)
		}
	}
}
