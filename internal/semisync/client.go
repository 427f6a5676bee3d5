package semisync

import (
	"context"
	"errors"
	"time"

	"myraft/internal/clock"
	"myraft/internal/opid"
)

// Client mirrors cluster.Client for the baseline: it resolves the primary
// through service discovery, simulates the client↔primary network RTT,
// and (for Write) retries across failovers.
type Client struct {
	rs *Replicaset
	// RTT is the simulated client-to-primary round trip per attempt.
	RTT time.Duration
	// RetryInterval paces retry loops.
	RetryInterval time.Duration
}

// NewClient creates a baseline client.
func (rs *Replicaset) NewClient(rtt time.Duration) *Client {
	return &Client{rs: rs, RTT: rtt, RetryInterval: 2 * time.Millisecond}
}

// resolve returns the live published primary, if any.
func (cl *Client) resolve() (*Node, bool) {
	id, ok := cl.rs.registry.Primary(cl.rs.opts.Name)
	if !ok {
		return nil, false
	}
	n := cl.rs.Node(id)
	if n == nil || n.IsDown() || n.server == nil || n.server.IsReadOnly() {
		return nil, false
	}
	return n, true
}

// Write upserts key=value, retrying across failovers until ctx expires.
func (cl *Client) Write(ctx context.Context, key string, value []byte) (opid.OpID, time.Duration, error) {
	start := time.Now()
	for {
		if n, ok := cl.resolve(); ok {
			clock.Sleep(cl.RTT / 2)
			op, err := n.server.Set(ctx, key, value)
			clock.Sleep(cl.RTT / 2)
			if err == nil {
				return op, time.Since(start), nil
			}
			if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				return opid.Zero, 0, err
			}
		}
		select {
		case <-ctx.Done():
			return opid.Zero, 0, ctx.Err()
		case <-time.After(cl.RetryInterval):
		}
	}
}

// TryWrite performs one attempt without retry.
func (cl *Client) TryWrite(ctx context.Context, key string, value []byte) (time.Duration, error) {
	n, ok := cl.resolve()
	if !ok {
		return 0, errors.New("semisync: no primary published")
	}
	start := time.Now()
	clock.Sleep(cl.RTT / 2)
	_, err := n.server.Set(ctx, key, value)
	clock.Sleep(cl.RTT / 2)
	if err != nil {
		return 0, err
	}
	return time.Since(start), nil
}
