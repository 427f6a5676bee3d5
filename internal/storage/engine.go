package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"myraft/internal/clock"
	"myraft/internal/opid"
)

// walRecordType discriminates write-ahead-log records.
type walRecordType uint8

const (
	walPrepare  walRecordType = 1
	walCommit   walRecordType = 2
	walRollback walRecordType = 3
	// walCheckpoint is a full-state record: its changes replace every row
	// and its OpID becomes the applied position. InstallCheckpoint writes
	// it as the sole record of a fresh WAL.
	walCheckpoint walRecordType = 4
)

// ErrLockTimeout is returned when a transaction cannot acquire a row lock
// within the engine's lock wait timeout (cf. innodb_lock_wait_timeout).
var ErrLockTimeout = errors.New("storage: lock wait timeout exceeded")

// ErrTxnFinished is returned when an operation is attempted on a
// transaction that has already committed or rolled back.
var ErrTxnFinished = errors.New("storage: transaction already finished")

// ErrClosed is returned by operations on a closed or crashed engine.
var ErrClosed = errors.New("storage: engine closed")

// Options configures an Engine.
type Options struct {
	// Dir holds the engine WAL.
	Dir string
	// LockWaitTimeout bounds row-lock waits. Zero means a generous
	// default (1s) suitable for tests.
	LockWaitTimeout time.Duration
	// PrepareLatency simulates the storage I/O a real engine performs
	// while staging a transaction for commit (page reads, doublewrite):
	// Prepare waits this long (clock.Sleep, which ends within tens of
	// microseconds of it) before its WAL append, outside the engine
	// mutex but with the transaction's row locks held — exactly the
	// blocking profile the parallel applier's worker pool exists to
	// overlap. Zero (the default) disables it; benchmarks use it to model
	// an I/O-bound replica on hosts whose core count cannot show CPU
	// overlap.
	PrepareLatency time.Duration
}

// Engine is a transactional key-value storage engine.
type Engine struct {
	mu       sync.Mutex
	rows     map[string][]byte
	locks    map[string]*rowLock
	prepared map[uint64]*Txn
	lastOp   opid.OpID // OpID of the last engine-committed transaction
	nextTxn  uint64
	closed   bool

	walPath string
	wal     *os.File
	// walw buffers WAL appends in user space: records become durable only
	// at the next Sync (group fsync) anyway, so per-record write syscalls
	// buy nothing — and under parallel apply they would serialize every
	// prepare/commit behind the engine mutex. A crash loses buffered
	// records exactly as it would lose unsynced page-cache bytes; recovery
	// treats both as the torn tail.
	walw *bufio.Writer
	// dirty tracks whether any WAL record landed since the last fsync:
	// Sync no-ops on a clean WAL, so a commit pipeline coalescing syncs
	// across groups (or calling on an idle engine) pays nothing.
	dirty         bool
	statSyncs     int64 // fsyncs actually performed
	statNoopSyncs int64 // Sync calls skipped on a clean WAL

	lockWait time.Duration
	prepLat  time.Duration // simulated staging I/O (Options.PrepareLatency)
}

// walBufSize is the engine WAL's user-space buffer.
const walBufSize = 1 << 18

// rowLock is an exclusive row lock with a waiter count.
type rowLock struct {
	owner   uint64
	waiters []chan struct{}
}

// Open opens (or creates) an engine in dir, replaying the WAL. Prepared
// but uncommitted transactions found in the WAL are rolled back, which is
// exactly MySQL's behaviour in the paper's recovery cases 1–3 (§A.2): the
// applier later re-applies anything that was consensus committed.
func Open(opts Options) (*Engine, error) {
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	e := &Engine{
		rows:     make(map[string][]byte),
		locks:    make(map[string]*rowLock),
		prepared: make(map[uint64]*Txn),
		walPath:  filepath.Join(opts.Dir, "engine.wal"),
		lockWait: opts.LockWaitTimeout,
		prepLat:  opts.PrepareLatency,
		nextTxn:  1,
	}
	if e.lockWait == 0 {
		e.lockWait = time.Second
	}
	if err := e.recover(); err != nil {
		return nil, err
	}
	wal, err := os.OpenFile(e.walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open wal: %w", err)
	}
	e.wal = wal
	e.walw = bufio.NewWriterSize(wal, walBufSize)
	return e, nil
}

// recover replays the WAL: committed transactions are applied in order;
// prepared transactions without a commit record are discarded (rolled
// back). Torn tail records are ignored.
func (e *Engine) recover() error {
	data, err := os.ReadFile(e.walPath)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("storage: read wal: %w", err)
	}
	pending := make(map[uint64][]RowChange)
	for len(data) > 0 {
		rec, rest, ok := decodeWALRecord(data)
		if !ok {
			break // torn tail
		}
		data = rest
		switch rec.typ {
		case walPrepare:
			pending[rec.txnID] = rec.changes
		case walCommit:
			for _, c := range pending[rec.txnID] {
				e.applyChange(c)
			}
			delete(pending, rec.txnID)
			e.lastOp = rec.op
		case walRollback:
			delete(pending, rec.txnID)
		case walCheckpoint:
			e.rows = make(map[string][]byte, len(rec.changes))
			for _, c := range rec.changes {
				e.applyChange(c)
			}
			e.lastOp = rec.op
			pending = make(map[uint64][]RowChange)
		}
		if rec.txnID >= e.nextTxn {
			e.nextTxn = rec.txnID + 1
		}
	}
	// Anything still pending was prepared but never committed: roll back
	// by simply not applying it. MySQL would write rollback records on
	// restart; we compact instead by rewriting nothing (the next commit
	// cycle supersedes).
	return nil
}

type walRecord struct {
	typ     walRecordType
	txnID   uint64
	op      opid.OpID
	changes []RowChange
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// walFixedBody is the fixed part of a record body: type, transaction id,
// OpID term and index.
const walFixedBody = 1 + 8 + 8 + 8

// encodeWALRecord frames rec as length | body | crc32(body) in one buffer
// of exactly the record's size.
func encodeWALRecord(rec *walRecord) []byte {
	csize := changesSize(rec.changes)
	bodyLen := walFixedBody + 4 + csize
	buf := make([]byte, 0, 4+bodyLen+4)
	buf = binary.BigEndian.AppendUint32(buf, uint32(bodyLen))
	buf = append(buf, byte(rec.typ))
	buf = binary.BigEndian.AppendUint64(buf, rec.txnID)
	buf = binary.BigEndian.AppendUint64(buf, rec.op.Term)
	buf = binary.BigEndian.AppendUint64(buf, rec.op.Index)
	buf = binary.BigEndian.AppendUint32(buf, uint32(csize))
	buf = appendChanges(buf, rec.changes)
	return binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf[4:], castagnoli))
}

func decodeWALRecord(data []byte) (*walRecord, []byte, bool) {
	if len(data) < 4 {
		return nil, nil, false
	}
	n := binary.BigEndian.Uint32(data)
	if uint32(len(data)) < 4+n+4 {
		return nil, nil, false
	}
	body := data[4 : 4+n]
	sum := binary.BigEndian.Uint32(data[4+n:])
	if crc32.Checksum(body, castagnoli) != sum {
		return nil, nil, false
	}
	rest := data[4+n+4:]
	if len(body) < walFixedBody {
		return nil, nil, false
	}
	rec := &walRecord{typ: walRecordType(body[0])}
	rec.txnID = binary.BigEndian.Uint64(body[1:9])
	rec.op.Term = binary.BigEndian.Uint64(body[9:17])
	rec.op.Index = binary.BigEndian.Uint64(body[17:25])
	enc, _, err := readBytes(body[25:])
	if err != nil {
		return nil, nil, false
	}
	if enc != nil {
		changes, err := DecodeChanges(enc)
		if err != nil {
			return nil, nil, false
		}
		rec.changes = changes
	}
	return rec, rest, true
}

func (e *Engine) writeWAL(rec *walRecord) error {
	return e.writeWALBytes(encodeWALRecord(rec))
}

// writeWALBytes appends a pre-encoded record. Callers on the parallel
// apply path encode off-lock (encodeWALRecord walks and re-serializes the
// whole change list, which is the expensive half of a WAL append) and
// only take the engine mutex for the write itself.
func (e *Engine) writeWALBytes(buf []byte) error {
	if _, err := e.walw.Write(buf); err != nil {
		return fmt.Errorf("storage: wal append: %w", err)
	}
	e.dirty = true
	return nil
}

// WALCommitOps reads the engine WAL in dir and returns the OpIDs of its
// commit records in on-disk order. Diagnostics and tests use it to verify
// the gap-free engine commit sequence the recovery cursor depends on: the
// parallel applier's commit sequencer must keep this list strictly
// increasing with no data entry skipped.
func WALCommitOps(dir string) ([]opid.OpID, error) {
	data, err := os.ReadFile(filepath.Join(dir, "engine.wal"))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("storage: read wal: %w", err)
	}
	var ops []opid.OpID
	for len(data) > 0 {
		rec, rest, ok := decodeWALRecord(data)
		if !ok {
			break // torn tail
		}
		data = rest
		if rec.typ == walCommit || rec.typ == walCheckpoint {
			ops = append(ops, rec.op)
		}
	}
	return ops, nil
}

func (e *Engine) applyChange(c RowChange) {
	if c.IsDelete() {
		delete(e.rows, c.Key)
	} else {
		e.rows[c.Key] = append([]byte(nil), c.After...)
	}
}

// Get returns the last committed value of key.
func (e *Engine) Get(key string) ([]byte, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	v, ok := e.rows[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// LastCommitted returns the OpID of the newest engine-committed
// transaction. The demotion orchestration uses this to position the
// applier cursor (§3.3 step 5).
func (e *Engine) LastCommitted() opid.OpID {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lastOp
}

// FlushWAL pushes buffered WAL records to the OS and returns the commit
// cursor the flush covers. A cursor obtained here survives a process
// crash (Crash drops only the user-space buffer), unlike LastCommitted,
// whose tail records may still be buffered. Purge safety must use this
// bound: log history may only be deleted below a position the engine is
// guaranteed to recover to.
func (e *Engine) FlushWAL() (opid.OpID, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return opid.OpID{}, ErrClosed
	}
	if err := e.walw.Flush(); err != nil {
		return opid.OpID{}, err
	}
	return e.lastOp, nil
}

// PreparedCount returns the number of transactions currently in the
// prepared state.
func (e *Engine) PreparedCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.prepared)
}

// RollbackPrepared rolls back every currently prepared transaction. The
// demotion orchestration calls this to abort in-flight transactions that
// were waiting for consensus commit (§3.3 demotion step 1).
func (e *Engine) RollbackPrepared() error {
	e.mu.Lock()
	txns := make([]*Txn, 0, len(e.prepared))
	for _, t := range e.prepared {
		txns = append(txns, t)
	}
	e.mu.Unlock()
	for _, t := range txns {
		if err := t.Rollback(); err != nil && !errors.Is(err, ErrTxnFinished) {
			return err
		}
	}
	return nil
}

// Checksum returns a CRC-32C over the sorted row contents; the shadow
// tester compares it across members to verify state-machine safety.
func (e *Engine) Checksum() uint32 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return ChecksumRows(e.rows)
}

// ChecksumRows is the engine content checksum as a pure function, so
// external checkers (the chaos harness's serial-replay invariant) can
// compute the checksum a hypothetical engine holding rows would report.
func ChecksumRows(rows map[string][]byte) uint32 {
	keys := make([]string, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sum uint32
	for _, k := range keys {
		sum = crc32.Update(sum, castagnoli, []byte(k))
		sum = crc32.Update(sum, castagnoli, rows[k])
	}
	return sum
}

// Rows returns a snapshot of all live rows (diagnostics, divergence
// diffing in the shadow checker).
func (e *Engine) Rows() map[string][]byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string][]byte, len(e.rows))
	for k, v := range e.rows {
		out[k] = append([]byte(nil), v...)
	}
	return out
}

// RowCount returns the number of live rows.
func (e *Engine) RowCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.rows)
}

// Close flushes and closes the engine cleanly.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	if err := e.walw.Flush(); err != nil {
		return err
	}
	if err := e.wal.Sync(); err != nil {
		return err
	}
	return e.wal.Close()
}

// Crash simulates a process crash: the WAL is abandoned without sync and
// all in-memory state (including prepared transactions) is dropped. The
// caller reopens with Open to run recovery.
func (e *Engine) Crash() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.closed = true
	// The buffered tail is deliberately NOT flushed: those records are the
	// unsynced bytes a real crash would lose.
	e.wal.Close()
	// Wake any lock waiters so goroutines don't leak; their transactions
	// will fail on the closed engine.
	for _, l := range e.locks {
		for _, w := range l.waiters {
			close(w)
		}
		l.waiters = nil
	}
}

// Begin starts a new transaction.
func (e *Engine) Begin() *Txn {
	e.mu.Lock()
	defer e.mu.Unlock()
	id := e.nextTxn
	e.nextTxn++
	return &Txn{engine: e, id: id, writes: make(map[string]RowChange)}
}

// Txn is a single transaction. A Txn is used by one goroutine at a time.
type Txn struct {
	engine   *Engine
	id       uint64
	writes   map[string]RowChange
	order    []string // keys in first-write order, for deterministic payloads
	locked   []string
	prepared bool
	done     bool
}

// ID returns the engine-local transaction ID.
func (t *Txn) ID() uint64 { return t.id }

// lockRow acquires the exclusive lock on key, blocking up to the engine's
// lock wait timeout.
func (t *Txn) lockRow(key string) error {
	e := t.engine
	deadline := time.Now().Add(e.lockWait)
	for {
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			return ErrClosed
		}
		l := e.locks[key]
		if l == nil {
			e.locks[key] = &rowLock{owner: t.id}
			e.mu.Unlock()
			t.locked = append(t.locked, key)
			return nil
		}
		if l.owner == t.id {
			e.mu.Unlock()
			return nil
		}
		wait := make(chan struct{})
		l.waiters = append(l.waiters, wait)
		e.mu.Unlock()
		remain := time.Until(deadline)
		if remain <= 0 {
			return ErrLockTimeout
		}
		timer := time.NewTimer(remain)
		select {
		case <-wait:
			timer.Stop()
		case <-timer.C:
			return ErrLockTimeout
		}
	}
}

// unlockAllLocked releases the transaction's row locks. e.mu must be held.
func (t *Txn) unlockAllLocked() {
	e := t.engine
	for _, key := range t.locked {
		l := e.locks[key]
		if l == nil || l.owner != t.id {
			continue
		}
		waiters := l.waiters
		delete(e.locks, key)
		for _, w := range waiters {
			close(w)
		}
	}
	t.locked = nil
}

// Get reads key with read-your-writes semantics.
func (t *Txn) Get(key string) ([]byte, bool, error) {
	if t.done {
		return nil, false, ErrTxnFinished
	}
	if c, ok := t.writes[key]; ok {
		if c.IsDelete() {
			return nil, false, nil
		}
		return append([]byte(nil), c.After...), true, nil
	}
	v, ok := t.engine.Get(key)
	return v, ok, nil
}

// Set buffers a write of key=value, acquiring the row lock.
func (t *Txn) Set(key string, value []byte) error {
	return t.write(key, append([]byte(nil), value...))
}

// Delete buffers a deletion of key, acquiring the row lock.
func (t *Txn) Delete(key string) error {
	return t.write(key, nil)
}

func (t *Txn) write(key string, after []byte) error {
	if t.done {
		return ErrTxnFinished
	}
	if t.prepared {
		return fmt.Errorf("storage: write after prepare")
	}
	if err := t.lockRow(key); err != nil {
		return err
	}
	if prev, ok := t.writes[key]; ok {
		// Preserve the original before-image across rewrites.
		t.writes[key] = RowChange{Key: key, Before: prev.Before, After: after}
		return nil
	}
	before, _ := t.engine.Get(key)
	t.writes[key] = RowChange{Key: key, Before: before, After: after}
	t.order = append(t.order, key)
	return nil
}

// Changes returns the transaction's row changes in first-write order. The
// primary serializes this as the binlog payload.
func (t *Txn) Changes() []RowChange {
	out := make([]RowChange, 0, len(t.order))
	for _, k := range t.order {
		out = append(out, t.writes[k])
	}
	return out
}

// Prepare writes the prepare marker and row changes to the engine WAL.
// After Prepare, the transaction holds its locks and waits for the
// replication layer; it can then be Committed or Rolled back (including
// after a crash, where recovery rolls it back implicitly). Prepare,
// Commit and Rollback serialize on the engine mutex, so the commit
// pipeline and a concurrent demotion's RollbackPrepared may race to
// finish the same transaction and exactly one wins.
func (t *Txn) Prepare() error {
	e := t.engine
	// Encode the record before taking the engine mutex: the prepare record
	// carries the full change list, and serializing it is the bulk of the
	// work. Concurrent parallel-apply workers would otherwise serialize
	// their whole prepare, not just the WAL write. The transaction is
	// owned by this goroutine, so its buffered writes are stable; the
	// state checks still happen under the lock.
	rec := encodeWALRecord(&walRecord{typ: walPrepare, txnID: t.id, changes: t.Changes()})
	// Simulated staging I/O: blocks this transaction (row locks held)
	// without serializing concurrent preparers. See Options.
	clock.Sleep(e.prepLat)
	e.mu.Lock()
	defer e.mu.Unlock()
	if t.done {
		return ErrTxnFinished
	}
	if t.prepared {
		return fmt.Errorf("storage: already prepared")
	}
	if e.closed {
		return ErrClosed
	}
	if err := e.writeWALBytes(rec); err != nil {
		return err
	}
	t.prepared = true
	e.prepared[t.id] = t
	return nil
}

// Commit durably commits the prepared transaction to the engine, stamping
// it with the replicated-log OpID, applying its changes and releasing its
// locks. This is stage 3 of the commit pipeline (§3.4).
func (t *Txn) Commit(op opid.OpID) error {
	e := t.engine
	// Commit records are small, but the change-list snapshot walks
	// txn-local state only; take both off-lock so the commit sequencer's
	// critical section is just the WAL write and the row-map update.
	rec := encodeWALRecord(&walRecord{typ: walCommit, txnID: t.id, op: op})
	changes := t.Changes()
	e.mu.Lock()
	defer e.mu.Unlock()
	if t.done {
		return ErrTxnFinished
	}
	if !t.prepared {
		return fmt.Errorf("storage: commit before prepare")
	}
	if e.closed {
		return ErrClosed
	}
	if err := e.writeWALBytes(rec); err != nil {
		return err
	}
	for _, c := range changes {
		e.applyChange(c)
	}
	if e.lastOp.Less(op) {
		e.lastOp = op
	}
	delete(e.prepared, t.id)
	t.done = true
	t.unlockAllLocked()
	return nil
}

// Rollback aborts the transaction, releasing its locks. Prepared
// transactions write a rollback record so recovery stays idempotent.
func (t *Txn) Rollback() error {
	e := t.engine
	e.mu.Lock()
	defer e.mu.Unlock()
	if t.done {
		return ErrTxnFinished
	}
	t.done = true
	delete(e.prepared, t.id)
	t.unlockAllLocked()
	if t.prepared && !e.closed {
		return e.writeWAL(&walRecord{typ: walRollback, txnID: t.id})
	}
	return nil
}

// Sync fsyncs the WAL if any record landed since the last fsync, and
// no-ops otherwise. The commit pipeline calls it at commit-group burst
// boundaries; dirty tracking makes redundant calls free, mirroring the
// binlog's sync coalescing. Note the engine WAL fsync bounds recovery
// replay, not durability — the replicated binlog is the durability
// source — so skipping a sync never loses an acked write.
func (e *Engine) Sync() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	if !e.dirty {
		e.statNoopSyncs++
		return nil
	}
	if err := e.walw.Flush(); err != nil {
		return err
	}
	if err := e.wal.Sync(); err != nil {
		return err
	}
	e.dirty = false
	e.statSyncs++
	return nil
}

// SyncStats reports Sync's coalescing accounting: fsyncs actually
// performed and calls skipped because the WAL was clean.
func (e *Engine) SyncStats() (syncs, noopSyncs int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.statSyncs, e.statNoopSyncs
}
