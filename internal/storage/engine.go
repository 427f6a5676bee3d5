package storage

import (
	"bufio"
	"bytes"
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

// ErrCorrupt reports a damaged WAL record that is not a torn tail: a
// decodable record follows it, so recovering up to the damage would drop
// transactions that may have been synced and acked.
type ErrCorrupt struct {
	File   string
	Offset int64
	Reason string
}

func (e *ErrCorrupt) Error() string {
	return fmt.Sprintf("storage: corrupt wal record in %s at offset %d: %s", e.File, e.Offset, e.Reason)
}

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
	locks    map[string]rowLock // by value: a lock allocates nothing
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

// rowLock is an exclusive row lock and the channels of its waiters. It
// is held in Engine.locks by value, so a change to it is written back.
type rowLock struct {
	owner   uint64
	waiters []chan struct{}
}

// Open opens (or creates) an engine in dir, replaying the WAL. Prepared
// but uncommitted transactions found in the WAL are rolled back, which is
// exactly MySQL's behaviour in the paper's recovery cases 1–3 (§A.2): the
// applier later re-applies anything that was consensus committed. A
// damaged final record (a torn write) is truncated away before the WAL
// is reopened for appends; a damaged record followed by a decodable one
// is corruption, and Open returns an *ErrCorrupt without changing the
// file.
func Open(opts Options) (*Engine, error) {
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	e := &Engine{
		rows:     make(map[string][]byte),
		locks:    make(map[string]rowLock),
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
// back). A torn tail is truncated; see Open for corruption.
func (e *Engine) recover() error {
	data, err := os.ReadFile(e.walPath)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("storage: read wal: %w", err)
	}
	pending := make(map[uint64][]RowChange)
	for pos := 0; pos < len(data); {
		rec, rest, ok := decodeWALRecord(data[pos:])
		if !ok {
			if next := nextWALRecordAfter(data, pos); next >= 0 {
				return &ErrCorrupt{File: e.walPath, Offset: int64(pos),
					Reason: fmt.Sprintf("damaged record followed by a record at offset %d", next)}
			}
			if err := os.Truncate(e.walPath, int64(pos)); err != nil {
				return fmt.Errorf("storage: trim torn wal tail: %w", err)
			}
			break
		}
		pos = len(data) - len(rest)
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

// nextWALRecordAfter returns the offset of the first decodable record
// that starts after pos, or -1 when none does.
func nextWALRecordAfter(data []byte, pos int) int {
	for p := pos + 1; p < len(data); p++ {
		if _, _, ok := decodeWALRecord(data[p:]); ok {
			return p
		}
	}
	return -1
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
// of exactly the record's size: the change list is encoded where
// appendWALRecord then copies it onto itself.
func encodeWALRecord(rec *walRecord) []byte {
	hdr := 4 + walFixedBody + 4
	buf := make([]byte, 0, hdr+changesSize(rec.changes)+4)
	return appendWALRecord(buf, rec.typ, rec.txnID, rec.op, appendChanges(buf[hdr:hdr], rec.changes))
}

// appendWALRecord appends one record whose body ends in list, an encoded
// change list, taken as it is.
func appendWALRecord(buf []byte, typ walRecordType, txnID uint64, op opid.OpID, list []byte) []byte {
	start := len(buf)
	buf = binary.BigEndian.AppendUint32(buf, uint32(walFixedBody+4+len(list)))
	buf = append(buf, byte(typ))
	buf = binary.BigEndian.AppendUint64(buf, txnID)
	buf = binary.BigEndian.AppendUint64(buf, op.Term)
	buf = binary.BigEndian.AppendUint64(buf, op.Index)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(list)))
	buf = append(buf, list...)
	return binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf[start+4:], castagnoli))
}

func decodeWALRecord(data []byte) (*walRecord, []byte, bool) {
	if len(data) < 4 {
		return nil, nil, false
	}
	// In 64 bits: a length near 2³² must not wrap past the bounds check.
	n := uint64(binary.BigEndian.Uint32(data))
	if uint64(len(data)) < 4+n+4 {
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

// emptyChangeList is the encoded change list of a record without changes
// (commit, rollback): a zero count.
var emptyChangeList = []byte{0, 0, 0, 0}

// appendWAL appends one record whose body ends in list straight into the
// WAL writer's free space (a record that does not fit gets a buffer of
// its own). A prepare passes its payload's change-list section: rows are
// serialized once, for binlog and WAL. e.mu must be held.
func (e *Engine) appendWAL(typ walRecordType, txnID uint64, op opid.OpID, list []byte) error {
	if _, err := e.walw.Write(appendWALRecord(e.walw.AvailableBuffer(), typ, txnID, op, list)); err != nil {
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

// applyChange installs c.After without a copy: Txn.Set, StagePayload and
// readBytes (WAL recovery) hand over slices nothing else writes.
func (e *Engine) applyChange(c RowChange) {
	if c.IsDelete() {
		delete(e.rows, c.Key)
	} else {
		e.rows[c.Key] = c.After
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
	// The cleared lock is written back: a later Rollback releases the same
	// lock and must not close these channels again.
	for key, l := range e.locks {
		for _, w := range l.waiters {
			close(w)
		}
		l.waiters = nil
		e.locks[key] = l
	}
}

// Begin starts a new transaction.
func (e *Engine) Begin() *Txn {
	e.mu.Lock()
	defer e.mu.Unlock()
	t := &Txn{engine: e, id: e.nextTxn}
	t.changes = t.inline[:0]
	e.nextTxn++
	return t
}

// StagePayload is a replica's prepare of a replicated transaction
// (§3.5): it locks each row of payload (either framing), copying each
// value once, and writes the payload's own change-list bytes as the
// prepare record. A payload that does not decode is refused; on any
// error nothing stays locked.
func (e *Engine) StagePayload(payload []byte) (*Txn, error) {
	_, list, err := splitPayload(payload)
	if err != nil {
		return nil, err
	}
	t := e.Begin()
	err = walkChanges(list, func(key, _, after []byte) error {
		return t.write(string(key), bytes.Clone(after)) // nil stays a delete
	})
	if err == nil {
		t.payload = payload
		err = t.prepare()
	}
	if err != nil {
		t.Rollback()
		return nil, err
	}
	return t, nil
}

// txnInline is how many row changes a transaction holds inside its own
// allocation; most transactions write one row.
const txnInline = 2

// txnScanMax is the change count up to which a transaction finds a key by
// scanning its changes; past it a map indexes them.
const txnScanMax = 8

// Txn is a single transaction. A Txn is used by one goroutine at a time.
// Its row locks are exactly the keys of its changes.
type Txn struct {
	engine  *Engine
	id      uint64
	changes []RowChange // in first-write order, for deterministic payloads
	inline  [txnInline]RowChange
	index   map[string]int // key → position in changes, past txnScanMax
	// payload is the binlog payload the transaction was prepared from;
	// its change-list section is the prepare record's.
	payload  []byte
	prepared bool
	done     bool
}

// ID returns the engine-local transaction ID.
func (t *Txn) ID() uint64 { return t.id }

// find returns the position of key's change, or -1.
func (t *Txn) find(key string) int {
	if i, ok := t.index[key]; ok {
		return i
	}
	if t.index == nil {
		for i := range t.changes {
			if t.changes[i].Key == key {
				return i
			}
		}
	}
	return -1
}

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
		l, held := e.locks[key]
		if !held {
			e.locks[key] = rowLock{owner: t.id}
			e.mu.Unlock()
			return nil
		}
		if l.owner == t.id {
			e.mu.Unlock()
			return nil
		}
		wait := make(chan struct{})
		l.waiters = append(l.waiters, wait)
		e.locks[key] = l
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
	for i := range t.changes {
		key := t.changes[i].Key
		l, held := e.locks[key]
		if !held || l.owner != t.id {
			continue
		}
		delete(e.locks, key)
		for _, w := range l.waiters {
			close(w)
		}
	}
}

// Get reads key with read-your-writes semantics.
func (t *Txn) Get(key string) ([]byte, bool, error) {
	if t.done {
		return nil, false, ErrTxnFinished
	}
	if i := t.find(key); i >= 0 {
		c := t.changes[i]
		if c.IsDelete() {
			return nil, false, nil
		}
		return append([]byte(nil), c.After...), true, nil
	}
	v, ok := t.engine.Get(key)
	return v, ok, nil
}

// Set buffers a write of key=value, acquiring the row lock. The copy is
// never nil, even for an empty value: a nil After is a delete.
func (t *Txn) Set(key string, value []byte) error {
	return t.write(key, append(make([]byte, 0, len(value)), value...))
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
	if i := t.find(key); i >= 0 {
		t.changes[i].After = after
		return nil
	}
	t.changes = append(t.changes, RowChange{Key: key, After: after})
	if n := len(t.changes); n > txnScanMax {
		if t.index == nil {
			t.index = make(map[string]int, 2*n)
		}
		for i := len(t.index); i < n; i++ { // keys are distinct
			t.index[t.changes[i].Key] = i
		}
	}
	return nil
}

// Changes returns the transaction's row changes in first-write order. It
// is the transaction's own list, not a copy, and fixed once Prepare
// refuses further writes, so Prepare, the commit pipeline and Commit
// share it; callers must not modify it.
func (t *Txn) Changes() []RowChange { return t.changes }

// Payload returns the binlog payload the transaction was prepared from,
// nil before; on the primary, EncodeTxnPayload of Changes, which it
// proposes as it is. Callers must not modify it.
func (t *Txn) Payload() []byte { return t.payload }

// Prepare encodes the transaction's payload and writes the prepare
// marker and that payload's row changes to the engine WAL. After Prepare,
// the transaction holds its locks and waits for the replication layer; it
// can then be Committed or Rolled back (including after a crash, where
// recovery rolls it back implicitly). Prepare, Commit and Rollback
// serialize on the engine mutex, so the commit pipeline and a concurrent
// demotion's RollbackPrepared may race to finish the same transaction and
// exactly one wins.
func (t *Txn) Prepare() error {
	// Encoded off the engine mutex: it is the bulk of a prepare, and the
	// transaction's writes are stable (this goroutine owns it until it is
	// prepared); the state checks still happen under the lock.
	if !t.prepared && !t.done {
		t.payload = EncodeTxnPayload(t.changes)
	}
	return t.prepare()
}

// prepare writes the prepare record from t.payload, which decodes.
func (t *Txn) prepare() error {
	e := t.engine
	_, list, _ := splitPayload(t.payload)
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
	if err := e.appendWAL(walPrepare, t.id, opid.Zero, list); err != nil {
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
	if err := e.appendWAL(walCommit, t.id, op, emptyChangeList); err != nil {
		return err
	}
	for _, c := range t.changes {
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
		return e.appendWAL(walRollback, t.id, opid.Zero, emptyChangeList)
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
