// Package semisync implements the paper's "prior setup" baseline (§1,
// §6): MySQL primary-replica replication where the primary waits for a
// semi-synchronous acknowledgement from an in-region acker (a logtailer)
// before committing to the engine, while cross-region replicas receive
// the stream asynchronously. There is no consensus: leadership and
// membership live OUTSIDE the server, in the external automation of the
// automation package, which is exactly the architecture MyRaft replaced.
//
// The baseline reuses the same substrates as MyRaft — the mysql.Server
// with its 3-stage commit pipeline, the binlog, the storage engine, and
// the simulated network — so the A/B comparisons of §6 measure protocol
// differences, not implementation differences.
package semisync

import (
	"context"
	"fmt"
	"sync"
	"time"

	"myraft/internal/gtid"
	"myraft/internal/logstore"
	"myraft/internal/mysql"
	"myraft/internal/opid"
	"myraft/internal/transport"
	"myraft/internal/wire"
)

// primaryRepl is the primary-side replication state: it implements
// mysql.Replicator with semi-sync semantics (wait for one acker) and runs
// the dump threads that ship binlog entries to every peer.
type primaryRepl struct {
	node *Node

	mu      sync.Mutex
	cond    *sync.Cond
	era     uint64 // bumped on every promotion; plays the OpID term role
	last    uint64 // last appended index
	acked   map[wire.NodeID]uint64
	peers   map[wire.NodeID]*dumpThread
	stopped bool

	// cache holds recent entries so dump threads serve the hot tail from
	// memory instead of re-parsing binlog files (mirroring the Raft
	// leader's in-memory log cache, §3.4).
	cache      map[uint64]*wire.LogEntry
	cacheFirst uint64
}

// cacheCap bounds the primary-side entry cache.
const cacheCap = 8192

// cachePut inserts an entry (mu held).
func (r *primaryRepl) cachePut(e *wire.LogEntry) {
	if r.cache == nil {
		r.cache = make(map[uint64]*wire.LogEntry)
	}
	idx := e.OpID.Index
	r.cache[idx] = e
	if r.cacheFirst == 0 || idx < r.cacheFirst {
		r.cacheFirst = idx
	}
	for len(r.cache) > cacheCap {
		delete(r.cache, r.cacheFirst)
		r.cacheFirst++
	}
}

// cacheGet fetches an entry from the cache, else from disk.
func (r *primaryRepl) cacheGet(idx uint64) (*wire.LogEntry, error) {
	r.mu.Lock()
	e, ok := r.cache[idx]
	r.mu.Unlock()
	if ok {
		return e, nil
	}
	return r.node.store().Entry(idx)
}

// dumpThread ships entries to one peer.
type dumpThread struct {
	peer     wire.NodeID
	next     uint64
	lastSend time.Time
}

// retransmitTimeout is how long a dump thread waits for acknowledgement
// progress before rewinding to the peer's ack watermark and resending
// (covers lost messages and peer restarts).
const retransmitTimeout = 20 * time.Millisecond

func newPrimaryRepl(n *Node, era uint64) *primaryRepl {
	last := n.log().LastOpID()
	r := &primaryRepl{
		node:  n,
		era:   era,
		last:  last.Index,
		acked: make(map[wire.NodeID]uint64),
		peers: make(map[wire.NodeID]*dumpThread),
	}
	r.cond = sync.NewCond(&r.mu)
	// Periodic wakeup so dump threads can evaluate retransmission.
	go func() {
		ticker := time.NewTicker(retransmitTimeout / 2)
		defer ticker.Stop()
		for range ticker.C {
			r.mu.Lock()
			stopped := r.stopped
			r.cond.Broadcast()
			r.mu.Unlock()
			if stopped {
				return
			}
		}
	}()
	return r
}

// addPeer starts a dump thread for a peer.
func (r *primaryRepl) addPeer(peer wire.NodeID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.peers[peer]; ok || r.stopped {
		return
	}
	dt := &dumpThread{peer: peer, next: 1}
	r.peers[peer] = dt
	go r.runDump(dt)
}

// runDump is one dump thread: it streams entries to its peer as they
// appear, resending from the peer's NACK hint or — when acknowledgements
// stall (lost messages, peer restart) — rewinding to the peer's ack
// watermark after a retransmission timeout.
func (r *primaryRepl) runDump(dt *dumpThread) {
	for {
		r.mu.Lock()
		for !r.stopped {
			if dt.next <= r.last {
				break // fresh entries to ship
			}
			if r.acked[dt.peer] < r.last && time.Since(dt.lastSend) > retransmitTimeout {
				dt.next = r.acked[dt.peer] + 1 // rewind and resend
				break
			}
			r.cond.Wait()
		}
		if r.stopped {
			r.mu.Unlock()
			return
		}
		dt.lastSend = time.Now()
		from := dt.next
		to := r.last
		era := r.era
		r.mu.Unlock()

		const batch = 64
		if to >= from+batch {
			to = from + batch - 1
		}
		var entries []wire.LogEntry
		prev := opid.OpID{}
		if from > 1 {
			if e, err := r.cacheGet(from - 1); err == nil {
				prev = e.OpID
			}
		}
		ok := true
		for idx := from; idx <= to; idx++ {
			e, err := r.cacheGet(idx)
			if err != nil {
				ok = false
				break
			}
			entries = append(entries, *e)
		}
		if ok && len(entries) > 0 {
			r.node.ep.Send(dt.peer, &wire.AppendEntriesReq{
				Term:       era,
				LeaderID:   r.node.ID,
				PrevOpID:   prev,
				Entries:    entries,
				Route:      nil,
				ReturnPath: []wire.NodeID{r.node.ID},
			})
			r.mu.Lock()
			dt.next = to + 1 // optimistic; acks/nacks repair
			r.mu.Unlock()
		} else {
			// Transient read failure (rotation race); the retransmission
			// timer retries.
			r.mu.Lock()
			r.cond.Wait()
			r.mu.Unlock()
		}
	}
}

// handleAck processes a replica acknowledgement.
func (r *primaryRepl) handleAck(resp *wire.AppendEntriesResp) {
	r.mu.Lock()
	defer r.mu.Unlock()
	dt := r.peers[resp.From]
	if dt == nil {
		return
	}
	if resp.Success {
		if resp.MatchIndex > r.acked[resp.From] {
			r.acked[resp.From] = resp.MatchIndex
		}
		// Fast-forward past entries the replica already has (a fresh
		// primary's dump threads start from 1 and skip ahead on the
		// first acknowledgement).
		if resp.MatchIndex+1 > dt.next {
			dt.next = resp.MatchIndex + 1
		}
	} else {
		dt.next = resp.LastIndex + 1
		if dt.next == 0 {
			dt.next = 1
		}
	}
	r.cond.Broadcast()
}

// semiSyncAcked reports whether index has been acknowledged by at least
// one configured semi-sync acker.
func (r *primaryRepl) semiSyncAcked(index uint64) bool {
	for _, acker := range r.node.rs.ackersFor(r.node.ID) {
		if r.acked[acker] >= index {
			return true
		}
	}
	return false
}

// --- mysql.Replicator ---

// ProposeTransaction appends to the binlog and wakes the dump threads.
func (r *primaryRepl) ProposeTransaction(payload []byte, g gtid.GTID) (opid.OpID, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped {
		return opid.Zero, fmt.Errorf("semisync: replication stopped")
	}
	op := opid.OpID{Term: r.era, Index: r.last + 1}
	e := &wire.LogEntry{OpID: op, Kind: 1, HasGTID: true, GTID: g, Payload: payload}
	if err := r.node.store().Append(e); err != nil {
		return opid.Zero, err
	}
	r.cachePut(e)
	r.last = op.Index
	r.cond.Broadcast()
	return op, nil
}

// ProposeTransactionBatch appends a whole commit group under one lock
// acquisition and wakes the dump threads once.
func (r *primaryRepl) ProposeTransactionBatch(reqs []mysql.TxnProposal) ([]opid.OpID, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ops []opid.OpID
	for _, req := range reqs {
		if r.stopped {
			return ops, fmt.Errorf("semisync: replication stopped")
		}
		op := opid.OpID{Term: r.era, Index: r.last + 1}
		e := &wire.LogEntry{OpID: op, Kind: 1, HasGTID: true, GTID: req.GTID, Payload: req.Payload}
		if err := r.node.store().Append(e); err != nil {
			return ops, err
		}
		r.cachePut(e)
		r.last = op.Index
		ops = append(ops, op)
	}
	r.cond.Broadcast()
	return ops, nil
}

// ProposeRotate appends a rotate marker; it replicates like any entry.
func (r *primaryRepl) ProposeRotate() (opid.OpID, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped {
		return opid.Zero, fmt.Errorf("semisync: replication stopped")
	}
	op := opid.OpID{Term: r.era, Index: r.last + 1}
	e := &wire.LogEntry{OpID: op, Kind: 4}
	if err := r.node.store().Append(e); err != nil {
		return opid.Zero, err
	}
	r.cachePut(e)
	r.last = op.Index
	r.cond.Broadcast()
	return op, nil
}

// WaitCommitted blocks until a semi-sync acker has the entry (the
// semi-sync wait of the prior setup's commit path).
func (r *primaryRepl) WaitCommitted(ctx context.Context, index uint64) error {
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			// Lock before broadcasting so the wakeup cannot slip in
			// between the waiter's ctx check and its cond.Wait.
			r.mu.Lock()
			r.cond.Broadcast()
			r.mu.Unlock()
		case <-done:
		}
	}()
	r.mu.Lock()
	defer r.mu.Unlock()
	for !r.semiSyncAcked(index) && !r.stopped {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		r.cond.Wait()
	}
	if r.stopped && !r.semiSyncAcked(index) {
		return fmt.Errorf("semisync: replication stopped")
	}
	return nil
}

// WaitDurableCommit fsyncs inline, then waits for the semi-sync ack: the
// semi-sync baseline has no async log writer, so the commit pipeline's
// durability point is a synchronous flush — exactly the behaviour
// MyRaft's pipeline is measured against.
func (r *primaryRepl) WaitDurableCommit(ctx context.Context, index uint64) error {
	if err := r.node.store().Sync(); err != nil {
		return err
	}
	return r.WaitCommitted(ctx, index)
}

// CommitIndex returns the highest semi-sync-acked index.
func (r *primaryRepl) CommitIndex() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	hi := uint64(0)
	for _, acker := range r.node.rs.ackersFor(r.node.ID) {
		if r.acked[acker] > hi {
			hi = r.acked[acker]
		}
	}
	if hi > r.last {
		hi = r.last
	}
	return hi
}

// lastIndex returns the primary's binlog tail.
func (r *primaryRepl) lastIndex() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.last
}

// stopAll terminates replication (demotion / shutdown).
func (r *primaryRepl) stopAll() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped {
		return
	}
	r.stopped = true
	r.cond.Broadcast()
}

var _ mysql.Replicator = (*primaryRepl)(nil)

// replicaRepl is the replica-side state: it receives entries into the
// relay log, acknowledges them, and releases the applier immediately
// (asynchronous apply — there is no consensus gate in the prior setup).
type replicaRepl struct {
	node *Node

	mu   sync.Mutex
	cond *sync.Cond
	last uint64
	era  uint64
}

func newReplicaRepl(n *Node) *replicaRepl {
	last := n.log().LastOpID()
	r := &replicaRepl{node: n, last: last.Index, era: last.Term}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// handleAppend ingests a replication batch from the primary.
func (r *replicaRepl) handleAppend(req *wire.AppendEntriesReq) {
	r.mu.Lock()
	defer r.mu.Unlock()
	resp := &wire.AppendEntriesResp{From: r.node.ID, Term: req.Term}
	if req.PrevOpID.Index > r.last {
		resp.Success = false
		resp.LastIndex = r.last
		r.node.ep.Send(req.LeaderID, resp)
		return
	}
	for i := range req.Entries {
		e := req.Entries[i]
		if e.OpID.Index <= r.last {
			continue // duplicate from resend
		}
		if e.OpID.Index != r.last+1 {
			break
		}
		if err := r.node.store().Append(&e); err != nil {
			break
		}
		r.last = e.OpID.Index
		r.era = e.OpID.Term
	}
	resp.Success = true
	resp.MatchIndex = r.last
	resp.LastIndex = r.last
	r.cond.Broadcast()
	r.node.ep.Send(req.LeaderID, resp)
	// Async apply: everything received is immediately applicable.
	if srv := r.node.server; srv != nil {
		srv.OnCommitAdvance(r.last)
	}
}

// mysql.Replicator for replicas: the applier and promotion machinery need
// CommitIndex/WaitCommitted; proposals are rejected (read-only replica).
func (r *replicaRepl) ProposeTransaction([]byte, gtid.GTID) (opid.OpID, error) {
	return opid.Zero, mysql.ErrReadOnly
}

func (r *replicaRepl) ProposeTransactionBatch([]mysql.TxnProposal) ([]opid.OpID, error) {
	return nil, mysql.ErrReadOnly
}

func (r *replicaRepl) ProposeRotate() (opid.OpID, error) {
	return opid.Zero, mysql.ErrReadOnly
}

func (r *replicaRepl) WaitCommitted(ctx context.Context, index uint64) error {
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			// Lock before broadcasting so the wakeup cannot slip in
			// between the waiter's ctx check and its cond.Wait.
			r.mu.Lock()
			r.cond.Broadcast()
			r.mu.Unlock()
		case <-done:
		}
	}()
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.last < index {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		r.cond.Wait()
	}
	return nil
}

// WaitDurableCommit fsyncs inline (see primaryRepl.WaitDurableCommit).
func (r *replicaRepl) WaitDurableCommit(ctx context.Context, index uint64) error {
	if err := r.node.store().Sync(); err != nil {
		return err
	}
	return r.WaitCommitted(ctx, index)
}

func (r *replicaRepl) CommitIndex() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.last
}

var _ mysql.Replicator = (*replicaRepl)(nil)

// Kind distinguishes MySQL members from logtailer ackers.
type Kind int

const (
	// KindMySQL is a full server.
	KindMySQL Kind = iota
	// KindLogtailer is a semi-sync acker: log only.
	KindLogtailer
)

// NodeSpec describes one baseline member.
type NodeSpec struct {
	ID     wire.NodeID
	Region wire.Region
	Kind   Kind
}

// Node is one member of a baseline replicaset.
type Node struct {
	ID     wire.NodeID
	Region wire.Region
	Kind   Kind

	rs     *Replicaset
	ep     *transport.Endpoint
	server *mysql.Server // nil for logtailers
	ltLog  *logtailerLog // nil for MySQL members

	mu      sync.Mutex
	primary *primaryRepl // non-nil while primary
	replica *replicaRepl // non-nil while replica/acker
	down    bool
	stopRun chan struct{}
}

// logtailerLog is a bare replicated log for ackers.
type logtailerLog struct {
	store logstore.BinlogStore
}

// log returns the member's replication log.
func (n *Node) log() interface {
	LastOpID() opid.OpID
} {
	return n.store()
}

// store returns the member's log store.
func (n *Node) store() logstore.BinlogStore {
	if n.server != nil {
		return logstore.BinlogStore{Log: n.server.Log()}
	}
	return n.ltLog.store
}

// Server returns the node's MySQL server (nil for logtailers).
func (n *Node) Server() *mysql.Server { return n.server }

// LastIndex returns the node's log tail (automation queries it to pick
// failover candidates).
func (n *Node) LastIndex() uint64 { return n.store().LastOpID().Index }

// LastOpID returns the node's log tail OpID.
func (n *Node) LastOpID() opid.OpID { return n.store().LastOpID() }

// IsDown reports whether the node is crashed.
func (n *Node) IsDown() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.down
}

// run is the node's receive loop.
func (n *Node) run(stop chan struct{}) {
	for {
		select {
		case <-stop:
			return
		case env := <-n.ep.Recv():
			n.handle(env)
		}
	}
}

func (n *Node) handle(env transport.Envelope) {
	n.mu.Lock()
	primary := n.primary
	replica := n.replica
	n.mu.Unlock()
	switch msg := env.Msg.(type) {
	case *wire.AppendEntriesReq:
		if replica != nil {
			replica.handleAppend(msg)
		}
	case *wire.AppendEntriesResp:
		if primary != nil {
			primary.handleAck(msg)
		}
	}
}
