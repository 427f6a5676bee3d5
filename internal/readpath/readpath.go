// Package readpath implements the consistent read protocols layered over
// the MyRaft consensus core, filling the gap the paper's deployment
// handles with MySQL-native mechanisms: a bare engine read
// (mysql.Server.Read) has no freshness or leadership guarantee, so a
// deposed primary or lagging replica silently serves stale rows.
//
// Three consistency levels sit behind one Reader API:
//
//   - Linearizable (ReadIndex): the leader captures its commit index,
//     proves it is still the leader with one heartbeat-quorum round
//     (the FlexiRaft data-commit quorum), waits for the state machine to
//     apply through that index, then reads. One network round trip; the
//     strongest level.
//   - Lease: the leader serves locally while it holds a clock-skew-
//     guarded lease renewed by quorum-confirmed heartbeat rounds
//     (LeaseGuard-style: never inherited across terms). No network
//     round on the happy path; falls back to ReadIndex when the lease
//     is unsafe.
//   - Session (read-your-writes): any member — typically a follower —
//     serves once its applier has passed the client's session token,
//     the OpID of the client's last write. This is the MySQL
//     WAIT_FOR_EXECUTED_GTID_SET idiom; staleness is bounded by the
//     client's own write history, and no leadership check is needed.
package readpath

import (
	"context"
	"fmt"
	"strings"
	"time"

	"myraft/internal/opid"
)

// Level is a read consistency level.
type Level int

const (
	// LevelLinearizable is a ReadIndex-backed linearizable read.
	LevelLinearizable Level = iota
	// LevelLease is a leader-local read under a quorum-renewed lease.
	LevelLease
	// LevelSession is a read-your-writes read gated on a session token.
	LevelSession
)

func (l Level) String() string {
	switch l {
	case LevelLinearizable:
		return "linearizable"
	case LevelLease:
		return "lease"
	case LevelSession:
		return "session"
	default:
		return "unknown"
	}
}

// Consensus is the slice of the consensus node the read path needs.
// *raft.Node satisfies it.
type Consensus interface {
	// ReadIndex returns an index such that a read of state applied through
	// it is linearizable, confirming leadership with a quorum round.
	ReadIndex(ctx context.Context) (uint64, error)
	// LeaseRead returns the same without a quorum round iff the node holds
	// a valid leader lease; it errors when the lease is unsafe.
	LeaseRead() (uint64, error)
}

// StateMachine is the slice of the database the read path needs.
// *mysql.Server satisfies it.
type StateMachine interface {
	// WaitForApplied blocks until every data entry at or below index is
	// visible to local reads.
	WaitForApplied(ctx context.Context, index uint64) error
	// Read returns the local committed value of key.
	Read(key string) ([]byte, bool)
}

// Token is a client session token: the OpID of the client's newest
// consensus-committed write. A follower read carrying the token is
// guaranteed to observe that write (and everything before it). The zero
// Token demands nothing — it reads whatever the member has applied.
type Token struct {
	LastWrite opid.OpID
}

// Observe folds a completed write into the token (newest wins).
func (t *Token) Observe(op opid.OpID) {
	if op.AtLeast(t.LastWrite) {
		t.LastWrite = op
	}
}

// String renders the token in the wire form "term.index" for clients that
// carry it across connections (the GTID-set analog).
func (t Token) String() string { return t.LastWrite.String() }

// ParseToken parses the "term.index" form produced by Token.String.
func ParseToken(s string) (Token, error) {
	dot := strings.IndexByte(s, '.')
	if dot < 0 {
		return Token{}, fmt.Errorf("readpath: malformed token %q", s)
	}
	var term, index uint64
	if _, err := fmt.Sscanf(s, "%d.%d", &term, &index); err != nil {
		return Token{}, fmt.Errorf("readpath: malformed token %q: %w", s, err)
	}
	return Token{LastWrite: opid.OpID{Term: term, Index: index}}, nil
}

// Result is the outcome of one read.
type Result struct {
	// Value and Found are the engine lookup outcome.
	Value []byte
	Found bool
	// Index is the log index the read is consistent with: state applied
	// through Index was visible when the value was fetched.
	Index uint64
	// Level is the consistency level actually used.
	Level Level
	// FellBack reports that a lease read could not be served from the
	// lease and went through a full ReadIndex round instead.
	FellBack bool
}

// Reader serves reads at the three consistency levels against one member.
type Reader struct {
	c  Consensus
	sm StateMachine
	m  *Metrics
}

// NewReader builds a Reader over one member's consensus node and state
// machine. A nil Metrics records into a private, unexported sink.
func NewReader(c Consensus, sm StateMachine, m *Metrics) *Reader {
	if m == nil {
		m = NewMetrics()
	}
	return &Reader{c: c, sm: sm, m: m}
}

// Metrics returns the metrics sink this reader records into.
func (r *Reader) Metrics() *Metrics { return r.m }

// ReadLinearizable serves a linearizable read via the ReadIndex protocol.
// Only the leader can serve it; followers fail with the consensus error.
func (r *Reader) ReadLinearizable(ctx context.Context, key string) (Result, error) {
	start := time.Now()
	idx, err := r.c.ReadIndex(ctx)
	if err != nil {
		r.m.StaleRejections.Inc()
		return Result{}, err
	}
	return r.finish(ctx, key, start, Result{Index: idx, Level: LevelLinearizable})
}

// ReadLease serves a leader-local read under the lease, falling back to a
// full ReadIndex round when the lease is unsafe (not yet earned this
// term, expired under partition, or disabled by clock-skew config).
func (r *Reader) ReadLease(ctx context.Context, key string) (Result, error) {
	start := time.Now()
	res := Result{Level: LevelLease}
	idx, err := r.c.LeaseRead()
	if err != nil {
		// The lease refused to vouch for leadership; take the slow,
		// always-safe path rather than failing reads during lease gaps.
		r.m.LeaseFallbacks.Inc()
		res.FellBack = true
		if idx, err = r.c.ReadIndex(ctx); err != nil {
			r.m.StaleRejections.Inc()
			return Result{}, err
		}
	}
	res.Index = idx
	return r.finish(ctx, key, start, res)
}

// ReadSession serves a read-your-writes read: block until the member has
// applied the client's session token, then read locally. Works on any
// member; staleness is bounded by the token, not by leadership.
func (r *Reader) ReadSession(ctx context.Context, tok Token, key string) (Result, error) {
	start := time.Now()
	return r.finish(ctx, key, start, Result{Index: tok.LastWrite.Index, Level: LevelSession})
}

// finish is the shared tail of every level: wait for the state machine to
// cover the result's index, read, and record latency.
func (r *Reader) finish(ctx context.Context, key string, start time.Time, res Result) (Result, error) {
	if err := r.sm.WaitForApplied(ctx, res.Index); err != nil {
		r.m.StaleRejections.Inc()
		return Result{}, err
	}
	res.Value, res.Found = r.sm.Read(key)
	r.m.hist(res.Level).Observe(time.Since(start))
	return res, nil
}
