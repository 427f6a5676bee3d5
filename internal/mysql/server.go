// Package mysql implements the simulated MySQL server of this
// reproduction: a transactional storage engine fronted by the 3-stage
// group-commit pipeline of §3.4 (flush to the replication log via Raft,
// wait for consensus commit, commit to the engine), an applier thread
// that replays relay-log transactions on replicas (§3.5), and the role
// orchestration primitives the mysql_raft_repl plugin drives during
// promotion and demotion (§3.3).
//
// The server does not know about Raft directly: transactions reach
// consensus through the Replicator interface, which the plugin package
// implements over a raft.Node. This mirrors the paper's layering, where
// MySQL interfaces with kuduraft only through the plugin.
package mysql

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"myraft/internal/binlog"
	"myraft/internal/gtid"
	"myraft/internal/opid"
	"myraft/internal/storage"
	"myraft/internal/trace"
	"myraft/internal/wire"
)

// TxnProposal is one transaction of a batched group proposal: the encoded
// payload plus the GTID assigned at commit time.
type TxnProposal struct {
	Payload []byte
	GTID    gtid.GTID
}

// Replicator is how the server reaches consensus on a transaction. The
// plugin adapts a raft.Node to it.
type Replicator interface {
	// ProposeTransaction appends a client transaction to the replicated
	// log (the binlog), returning its assigned OpID.
	ProposeTransaction(payload []byte, g gtid.GTID) (opid.OpID, error)
	// ProposeTransactionBatch appends a whole drained commit group in one
	// consensus-layer round-trip, returning the contiguously assigned
	// OpIDs. On a mid-batch failure the OpIDs of the appended prefix are
	// returned alongside the error; everything past the prefix was not
	// appended.
	ProposeTransactionBatch(reqs []TxnProposal) ([]opid.OpID, error)
	// ProposeRotate replicates a FLUSH BINARY LOGS rotate marker (§A.1).
	ProposeRotate() (opid.OpID, error)
	// WaitCommitted blocks until index is consensus committed.
	WaitCommitted(ctx context.Context, index uint64) error
	// WaitDurableCommit blocks until index is both consensus committed
	// and locally durable (fsynced to the binlog), the point at which the
	// commit pipeline may engine-commit it. The pipeline uses this instead
	// of calling Sync itself: the consensus layer's async log writer owns
	// fsync scheduling and coalesces neighbouring groups into one flush.
	WaitDurableCommit(ctx context.Context, index uint64) error
	// CommitIndex returns the current consensus commit marker.
	CommitIndex() uint64
}

// Errors returned by the server API.
var (
	// ErrReadOnly rejects client writes on replicas (and on quiesced
	// primaries before promotion completes).
	ErrReadOnly = errors.New("mysql: server is read-only")
	// ErrNoReplicator is returned when the plugin has not been attached.
	ErrNoReplicator = errors.New("mysql: no replicator attached")
	// ErrCrashed rejects operations after a simulated crash.
	ErrCrashed = errors.New("mysql: server crashed")
	// ErrManagedByRaft rejects legacy replication-control statements:
	// with MyRaft, replication topology is owned by the consensus layer
	// (§3: CHANGE MASTER TO, RESET MASTER and RESET REPLICATION were
	// adjusted or disallowed).
	ErrManagedByRaft = errors.New("mysql: replication is managed by raft; statement disallowed")
)

// Options configures a Server.
type Options struct {
	// ID identifies the server in the replicaset.
	ID wire.NodeID
	// Dir holds the engine WAL and the replication logs.
	Dir string
	// ServerUUID is the GTID source for transactions committed while this
	// server is primary; it defaults to "uuid-<ID>".
	ServerUUID gtid.UUID
	// StartAsPrimary opens the log in binlog persona with writes enabled,
	// used to bootstrap a fresh replicaset. The normal path is to start
	// read-only as a replica and let Raft promote.
	StartAsPrimary bool
	// EngineOptions tunes the storage engine.
	Engine storage.Options
	// ApplyWorkers is the replica applier's concurrency: the number of
	// worker threads staging non-conflicting transactions in parallel
	// (writeset dependency tracking, §3.5). 0 picks the default; 1 forces
	// serial apply. Engine commits are sequenced in log order regardless.
	ApplyWorkers int
	// CommitPipelineDepth bounds how many proposed-but-not-engine-committed
	// commit groups the primary's write pipeline keeps in flight: the
	// flusher proposes group N+1 while group N still awaits its local
	// fsync, the quorum or the engine. 0 picks the default; 1 forces the
	// fully serial pipeline (flush, sync, quorum and engine commit of a
	// group complete before the next group's flush starts). Engine commits
	// stay strictly log-ordered at any depth.
	CommitPipelineDepth int
	// Tracer, when set, samples write-path transactions: the primary's
	// commit pipeline observes propose/commit/engine-commit stages, the
	// replica applier observes apply/engine-commit. Share it with the
	// member's raft node (raft.Config.Tracer) for full-path spans. Nil
	// disables tracing at the cost of a nil check per transaction.
	Tracer *trace.Tracer
}

// defaultApplyWorkers is the apply concurrency when Options.ApplyWorkers
// is zero. Parallel apply is on by default: the commit sequencer keeps the
// engine commit sequence identical to serial apply, so concurrency is a
// pure latency knob.
const defaultApplyWorkers = 4

// defaultCommitPipelineDepth is the in-flight commit-group bound when
// Options.CommitPipelineDepth is zero. Overlap is on by default: the
// committer keeps engine commits strictly log-ordered at any depth, so
// depth is a pure throughput knob (it amortizes the local fsync and the
// quorum round-trip across groups without reordering anything).
const defaultCommitPipelineDepth = 4

// Server is one simulated MySQL instance.
type Server struct {
	opts   Options
	log    *binlog.Log
	engine *storage.Engine
	tracer *trace.Tracer

	mu       sync.Mutex
	repl     Replicator
	pipeline *pipeline
	applier  *applier
	crashed  bool

	readOnly atomic.Bool
}

// NewServer opens (or recovers) a server in opts.Dir. Recovery follows
// §A.2: the engine rolls back prepared-but-uncommitted transactions and
// the log drops its torn tail; the applier later reconciles with the ring.
func NewServer(opts Options) (*Server, error) {
	if opts.ServerUUID == "" {
		opts.ServerUUID = gtid.UUID("uuid-" + string(opts.ID))
	}
	persona := binlog.PersonaRelay
	if opts.StartAsPrimary {
		persona = binlog.PersonaBinlog
	}
	log, err := binlog.Open(binlog.Options{
		Dir:     filepath.Join(opts.Dir, "logs"),
		Persona: persona,
	})
	if err != nil {
		return nil, fmt.Errorf("mysql: open log: %w", err)
	}
	engOpts := opts.Engine
	engOpts.Dir = filepath.Join(opts.Dir, "engine")
	engine, err := storage.Open(engOpts)
	if err != nil {
		log.Close()
		return nil, fmt.Errorf("mysql: open engine: %w", err)
	}
	s := &Server{opts: opts, log: log, engine: engine, tracer: opts.Tracer}
	s.readOnly.Store(!opts.StartAsPrimary)
	s.pipeline = newPipeline(s)
	workers := opts.ApplyWorkers
	if workers == 0 {
		workers = defaultApplyWorkers
	}
	s.applier = newApplier(s, workers)
	if !opts.StartAsPrimary {
		s.applier.start()
	}
	return s, nil
}

// AttachReplicator wires the consensus layer in; the plugin calls this
// once the raft node exists.
func (s *Server) AttachReplicator(r Replicator) {
	s.mu.Lock()
	s.repl = r
	s.mu.Unlock()
}

func (s *Server) replicator() (Replicator, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return nil, ErrCrashed
	}
	if s.repl == nil {
		return nil, ErrNoReplicator
	}
	return s.repl, nil
}

// ID returns the server's node ID.
func (s *Server) ID() wire.NodeID { return s.opts.ID }

// Log exposes the replication log; the plugin's log abstraction reads and
// writes through it.
func (s *Server) Log() *binlog.Log { return s.log }

// Engine exposes the storage engine (checksum comparisons, tests).
func (s *Server) Engine() *storage.Engine { return s.engine }

// IsReadOnly reports whether client writes are currently rejected.
func (s *Server) IsReadOnly() bool { return s.readOnly.Load() }

// setReadOnly flips the client write gate.
func (s *Server) setReadOnly(ro bool) { s.readOnly.Store(ro) }

// Read returns the local engine's committed value of key. This is a
// LOCAL read with no freshness or leadership guarantee: a deposed
// primary or lagging replica serves whatever its engine holds. Callers
// needing linearizable, lease-bounded, or read-your-writes semantics
// must go through internal/readpath (cluster.ReadLinearizable /
// ReadLease / ReadAtSession), which gates this call on the consensus
// read protocols and WaitForApplied.
func (s *Server) Read(key string) ([]byte, bool) { return s.engine.Get(key) }

// WaitForApplied blocks until every data entry at or below index is
// visible to local reads, on either persona: the applier thread applies
// them on a replica, pipeline stage 3 commits them on the primary. It is
// the MySQL WAIT_FOR_EXECUTED_GTID_SET analog used by the read path
// (internal/readpath) to gate ReadIndex and session-token reads.
func (s *Server) WaitForApplied(ctx context.Context, index uint64) error {
	return s.applier.waitApplied(ctx, index)
}

// GTIDExecuted returns the executed-GTID set of the replication log
// (SHOW MASTER STATUS).
func (s *Server) GTIDExecuted() *gtid.Set { return s.log.GTIDSet() }

// BinlogFiles lists the replication log files (SHOW BINARY LOGS).
func (s *Server) BinlogFiles() []binlog.FileInfo { return s.log.Files() }

// ChangeMaster is disallowed under MyRaft: replication sources are chosen
// by Raft leadership, not by operators (§3).
func (s *Server) ChangeMaster() error { return ErrManagedByRaft }

// ResetMaster is disallowed under MyRaft: the binlog is the replicated
// log and cannot be unilaterally reset (§3).
func (s *Server) ResetMaster() error { return ErrManagedByRaft }

// ResetReplication is disallowed under MyRaft (§3).
func (s *Server) ResetReplication() error { return ErrManagedByRaft }

// ExecuteWrite runs a client write transaction: mutate stages the row
// changes, then the transaction rides the 3-stage commit pipeline (§3.4).
// It returns the OpID under which the transaction consensus-committed.
func (s *Server) ExecuteWrite(ctx context.Context, mutate func(*storage.Txn) error) (opid.OpID, error) {
	if s.readOnly.Load() {
		return opid.Zero, ErrReadOnly
	}
	repl, err := s.replicator()
	if err != nil {
		return opid.Zero, err
	}
	txn := s.engine.Begin()
	if err := mutate(txn); err != nil {
		txn.Rollback()
		return opid.Zero, err
	}
	// Prepare in the engine within the client thread (§3.4): locks held,
	// prepare marker in the engine WAL.
	if err := txn.Prepare(); err != nil {
		txn.Rollback()
		return opid.Zero, err
	}
	// From here the pipeline owns the transaction: it commits on
	// consensus or rolls back on failure, even if this client's context
	// expires mid-wait (a disconnect must not abort a commit already
	// flushed to the replicated log).
	return s.pipeline.commit(ctx, repl, txn)
}

// Set is a convenience single-row write.
func (s *Server) Set(ctx context.Context, key string, value []byte) (opid.OpID, error) {
	return s.ExecuteWrite(ctx, func(t *storage.Txn) error {
		return t.Set(key, value)
	})
}

// Delete is a convenience single-row delete.
func (s *Server) Delete(ctx context.Context, key string) (opid.OpID, error) {
	return s.ExecuteWrite(ctx, func(t *storage.Txn) error {
		return t.Delete(key)
	})
}

// FlushBinaryLogs rotates the binlog through a replicated rotate event
// (§A.1). Primary only.
func (s *Server) FlushBinaryLogs(ctx context.Context) error {
	if s.readOnly.Load() {
		return ErrReadOnly
	}
	repl, err := s.replicator()
	if err != nil {
		return err
	}
	op, err := repl.ProposeRotate()
	if err != nil {
		return err
	}
	return repl.WaitCommitted(ctx, op.Index)
}

// PurgeLogsTo deletes log files wholly below index. The plugin gates the
// index on Raft's region watermarks so out-of-region laggards can still
// fetch history (§A.1). The index is additionally clamped to this
// member's own safe bound: nothing at or above the applier's applied
// position or the consensus commit marker is ever purged, so an
// over-eager purge coordinator (or operator) cannot delete entries this
// member still needs to replay. Clamping rather than erroring lets the
// cluster-wide purge protocol drive every member with one floor; each
// member purges as much of it as is locally safe.
func (s *Server) PurgeLogsTo(index uint64) error {
	if limit := s.safePurgeLimit(); index > limit {
		index = limit
	}
	return s.log.PurgeTo(index)
}

// safePurgeLimit is the highest index PurgeLogsTo may forward to the log.
// PurgeTo(i) removes entries strictly below i, so the limit is one past
// the newest entry that is both applied to the engine and consensus
// committed: min(applied, commitIndex) + 1.
//
// "Applied" must be crash-durable, not merely in-memory: after a crash
// the engine recovers to at most its flushed WAL cursor and the applier
// restarts from wherever the engine landed, so any data entry above the
// flushed cursor may still need to be replayed from the log. Purging by
// an unflushed cursor deletes exactly that replay window — a crash then
// rewinds the engine below the purge floor and the applier retries
// "entry not found" forever, wedging promotion (§3.3) with it. The bound
// is therefore the engine's flushed cursor, extended by the applier
// position sampled BEFORE the flush: every data entry at or below that
// sample has committed to the engine and is covered by the flush, so the
// indexes between the two cursors are all non-data entries (no-ops,
// rotates, config) that recovery skips without loss (see applier.start).
func (s *Server) safePurgeLimit() uint64 {
	applierPos := s.applier.lastApplied()
	flushed, err := s.engine.FlushWAL()
	if err != nil {
		// Engine closed mid-shutdown (or flush failed): nothing is
		// provably recoverable, so allow no purge at all.
		return 0
	}
	limit := flushed.Index
	if applierPos > limit {
		limit = applierPos
	}
	s.mu.Lock()
	repl := s.repl
	s.mu.Unlock()
	if repl != nil {
		if ci := repl.CommitIndex(); ci < limit {
			limit = ci
		}
	}
	return limit + 1
}

// Checkpoint serializes a consistent engine checkpoint for snapshot
// transfer: the committed row state, the OpID it is current through, and
// the executed-GTID set at exactly that position. config is the encoded
// replication membership to embed (the installer may have purged every
// config entry from its log). It returns the checkpoint bytes, the
// anchor OpID and the anchor GTID set.
func (s *Server) Checkpoint(config []byte) ([]byte, opid.OpID, string, error) {
	rows, op := s.engine.CheckpointRows()
	// The log's executed set covers its tail, which may be ahead of the
	// engine; strip GTIDs of entries after the checkpoint's applied
	// position so the set matches the row state. The tail is read after
	// the clone, so every post-anchor GTID in the clone is visited.
	set := s.log.GTIDSet().Clone()
	tail := s.log.LastOpID().Index
	for i := op.Index + 1; i <= tail; i++ {
		e, err := s.log.Entry(i)
		if err != nil {
			return nil, opid.Zero, "", fmt.Errorf("mysql: checkpoint gtid walk at %d: %w", i, err)
		}
		if e.HasGTID {
			set.Remove(e.GTID)
		}
	}
	cp := &storage.Checkpoint{AppliedOp: op, GTIDSet: set.String(), Config: config, Rows: rows}
	return cp.Encode(), op, cp.GTIDSet, nil
}

// InstallCheckpoint replaces this server's entire state with a received
// engine checkpoint: the applier is quiesced, the engine atomically
// swaps to the checkpoint's rows, and the log is reset to an empty
// suffix anchored at the checkpoint's applied OpID. Engine first, then
// log — a crash between the two leaves a log behind the engine cursor,
// which the next snapshot transfer simply re-installs over.
func (s *Server) InstallCheckpoint(data []byte, anchor opid.OpID, gtidSet string) error {
	cp, err := storage.DecodeCheckpoint(data)
	if err != nil {
		return fmt.Errorf("mysql: install checkpoint: %w", err)
	}
	if cp.AppliedOp != anchor {
		return fmt.Errorf("mysql: checkpoint applied op %v does not match snapshot anchor %v", cp.AppliedOp, anchor)
	}
	set, err := gtid.ParseSet(gtidSet)
	if err != nil {
		return fmt.Errorf("mysql: install checkpoint gtids: %w", err)
	}
	// Quiesce the applier so it cannot race the swap; it restarts
	// positioned from the engine's new cursor (the anchor).
	wasRunning := s.applier.isRunning()
	s.applier.stop()
	defer func() {
		if wasRunning {
			s.applier.start()
		}
	}()
	if err := s.engine.InstallCheckpoint(cp); err != nil {
		return fmt.Errorf("mysql: install checkpoint engine: %w", err)
	}
	if err := s.log.ResetTo(anchor, set); err != nil {
		return fmt.Errorf("mysql: install checkpoint log reset: %w", err)
	}
	return nil
}

// --- role orchestration (driven by the plugin's Raft callbacks, §3.3) ---

// PromoteToPrimary runs the MySQL side of promotion up to (but not
// including) the write-enable step: catch the applier up to the
// leadership No-Op, stop it, and rewire relay-log -> binlog. The caller
// (plugin) then re-verifies leadership, calls EnableWrites (step 4) and
// publishes service discovery (step 5).
func (s *Server) PromoteToPrimary(ctx context.Context, noOpIndex uint64) error {
	repl, err := s.replicator()
	if err != nil {
		return err
	}
	// Step 2: catch up and commit everything up to the No-Op.
	if err := repl.WaitCommitted(ctx, noOpIndex); err != nil {
		return fmt.Errorf("mysql: promotion wait: %w", err)
	}
	if err := s.applier.catchUpTo(ctx, noOpIndex); err != nil {
		return fmt.Errorf("mysql: promotion catch-up: %w", err)
	}
	s.applier.stop()
	// Step 3: rewire logs into binlog mode.
	if err := s.log.SetPersona(binlog.PersonaBinlog); err != nil {
		return fmt.Errorf("mysql: rewire: %w", err)
	}
	return nil
}

// EnableWrites opens the client write gate (promotion step 4).
func (s *Server) EnableWrites() { s.setReadOnly(false) }

// DisableWrites closes the client write gate.
func (s *Server) DisableWrites() { s.setReadOnly(true) }

// DemoteToReplica runs the MySQL side of demotion: abort in-flight
// prepared transactions, disable writes, rewire binlog -> relay-log, and
// restart the applier positioned from the engine's last committed
// transaction (§3.3; truncation of uncommitted log entries arrives
// separately through the log store).
func (s *Server) DemoteToReplica() error {
	// Step 1: abort transactions waiting for consensus (they are in
	// prepared state; rollback is online).
	if err := s.engine.RollbackPrepared(); err != nil {
		return fmt.Errorf("mysql: demotion rollback: %w", err)
	}
	// Step 2: disable client writes.
	s.setReadOnly(true)
	// Step 3: rewire logs into relay-log mode.
	if err := s.log.SetPersona(binlog.PersonaRelay); err != nil {
		return fmt.Errorf("mysql: rewire: %w", err)
	}
	// Step 5: start the applier from the engine's recovery cursor.
	s.applier.start()
	return nil
}

// OnCommitAdvance is forwarded by the plugin whenever Raft's commit
// marker moves; it unblocks the applier (§3.5).
func (s *Server) OnCommitAdvance(index uint64) { s.applier.notify(index) }

// ApplyStatus reports the parallel applier's detailed state: lag, worker
// occupancy and conflict-fallback accounting (adminapi /status).
func (s *Server) ApplyStatus() ApplyStatus { return s.applier.status() }

// PipelineStatus reports the primary commit pipeline's detailed state:
// configured depth, in-flight groups, group-size distribution and
// per-stage occupancy (adminapi /status).
func (s *Server) PipelineStatus() PipelineStatus { return s.pipeline.status() }

// Checksum summarizes engine contents for cross-member comparison.
func (s *Server) Checksum() uint32 { return s.engine.Checksum() }

// Crash simulates a process crash: buffered log writes are torn off, the
// engine drops its memtable, the applier dies. Reopen with NewServer.
func (s *Server) Crash() {
	s.mu.Lock()
	s.crashed = true
	s.mu.Unlock()
	s.applier.stop()
	s.engine.Crash()
	s.log.Crash()
	s.pipeline.fail(ErrCrashed)
}

// Close shuts the server down cleanly.
func (s *Server) Close() error {
	s.applier.stop()
	s.pipeline.fail(ErrCrashed)
	if err := s.engine.Close(); err != nil {
		s.log.Close()
		return err
	}
	return s.log.Close()
}
