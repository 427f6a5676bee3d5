package cluster

import (
	"context"
	"errors"
	"sync"
	"time"

	"myraft/internal/clock"
	"myraft/internal/opid"
	"myraft/internal/readpath"
	"myraft/internal/wire"
)

// Client is a simulated database client: it resolves the primary through
// service discovery, submits writes, and retries through failovers. The
// configured RTT stands in for the client↔primary network distance of the
// paper's production evaluation (~10ms, §6.1); sysbench-style runs use
// RTT 0 (clients co-located with the primary).
type Client struct {
	c *Cluster
	// RTT is the simulated client-to-primary round trip added to every
	// attempt.
	RTT time.Duration
	// RetryInterval paces re-resolution when no primary is available.
	RetryInterval time.Duration

	// tokMu guards the session token accumulated from this client's
	// writes (the GTID-set a MySQL session would carry).
	tokMu   sync.Mutex
	session readpath.Token
}

// NewClient creates a client for the replicaset with the given simulated
// round-trip time.
func (c *Cluster) NewClient(rtt time.Duration) *Client {
	return &Client{c: c, RTT: rtt, RetryInterval: 2 * time.Millisecond}
}

// WriteResult reports one completed write.
type WriteResult struct {
	OpID    opid.OpID
	Latency time.Duration
	// Retries counts failed attempts before success (0 in steady state).
	Retries int
}

// Write upserts key=value on the current primary, retrying across
// failovers until ctx expires. Latency covers the full client experience
// including retries — this is what the paper's downtime and
// commit-latency metrics observe.
func (cl *Client) Write(ctx context.Context, key string, value []byte) (WriteResult, error) {
	start := time.Now()
	retries := 0
	for {
		srv, _, ok := cl.c.primaryServer()
		if ok {
			clock.Sleep(cl.RTT / 2)
			op, err := srv.Set(ctx, key, value)
			clock.Sleep(cl.RTT / 2)
			if err == nil {
				cl.observeWrite(op)
				return WriteResult{OpID: op, Latency: time.Since(start), Retries: retries}, nil
			}
			if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				return WriteResult{}, err
			}
		}
		retries++
		select {
		case <-ctx.Done():
			return WriteResult{}, ctx.Err()
		case <-time.After(cl.RetryInterval):
		}
	}
}

// TryWrite performs a single attempt with no retry, for workloads that
// account failed writes as downtime themselves.
func (cl *Client) TryWrite(ctx context.Context, key string, value []byte) (WriteResult, error) {
	start := time.Now()
	srv, _, ok := cl.c.primaryServer()
	if !ok {
		return WriteResult{}, errors.New("cluster: no primary published")
	}
	clock.Sleep(cl.RTT / 2)
	op, err := srv.Set(ctx, key, value)
	clock.Sleep(cl.RTT / 2)
	if err != nil {
		return WriteResult{}, err
	}
	cl.observeWrite(op)
	return WriteResult{OpID: op, Latency: time.Since(start)}, nil
}

// observeWrite folds a committed write into the session token.
func (cl *Client) observeWrite(op opid.OpID) {
	cl.tokMu.Lock()
	cl.session.Observe(op)
	cl.tokMu.Unlock()
}

// SessionToken returns the client's current session token: the OpID of
// its newest committed write, carried into session reads.
func (cl *Client) SessionToken() readpath.Token {
	cl.tokMu.Lock()
	defer cl.tokMu.Unlock()
	return cl.session
}

// Read resolves the published primary and reads key from its local
// engine. This is a LOCAL read: it usually observes the client's own
// writes (the primary applied them), but a deposed-but-still-published
// primary can serve stale data. Use ReadLinearizable / ReadLease /
// ReadSession when the consistency level matters.
func (cl *Client) Read(ctx context.Context, key string) ([]byte, bool, error) {
	for {
		srv, _, ok := cl.c.primaryServer()
		if ok {
			v, found := srv.Read(key)
			return v, found, nil
		}
		select {
		case <-ctx.Done():
			return nil, false, ctx.Err()
		case <-time.After(cl.RetryInterval):
		}
	}
}

// ReadLinearizable serves a linearizable read from the leader (ReadIndex
// protocol), simulating the client round trip like Write does.
func (cl *Client) ReadLinearizable(ctx context.Context, key string) (readpath.Result, error) {
	return cl.timedRead(func() (readpath.Result, error) {
		return cl.c.ReadLinearizable(ctx, key)
	})
}

// ReadLease serves a lease read from the leader, falling back to
// ReadIndex when the lease is unsafe.
func (cl *Client) ReadLease(ctx context.Context, key string) (readpath.Result, error) {
	return cl.timedRead(func() (readpath.Result, error) {
		return cl.c.ReadLease(ctx, key)
	})
}

// ReadSession serves a read-your-writes read from the named member
// (typically a follower replica near the client), gated on this client's
// session token.
func (cl *Client) ReadSession(ctx context.Context, id wire.NodeID, key string) (readpath.Result, error) {
	return cl.timedRead(func() (readpath.Result, error) {
		return cl.c.ReadAtSession(ctx, id, cl.SessionToken(), key)
	})
}

// timedRead wraps a read with the simulated client RTT.
func (cl *Client) timedRead(fn func() (readpath.Result, error)) (readpath.Result, error) {
	clock.Sleep(cl.RTT / 2)
	res, err := fn()
	clock.Sleep(cl.RTT / 2)
	return res, err
}
