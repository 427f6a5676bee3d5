package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"

	"myraft/internal/raft"
	"myraft/internal/readpath"
	"myraft/internal/wire"
)

// Read routing: the cluster-level entry points to the three read
// consistency levels of internal/readpath. Linearizable and lease reads
// resolve the Raft leader (they are leader protocols); session reads
// target an explicit member — typically a follower replica — and gate on
// the caller's session token instead of leadership.

// ReadMetrics returns the replicaset-wide read-path metrics sink shared
// by every member's reader.
func (c *Cluster) ReadMetrics() *readpath.Metrics { return c.readMetrics }

// readerFor builds a reader over one MySQL member's stack.
func (c *Cluster) readerFor(m *Member) (*readpath.Reader, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if m == nil || m.down || m.server == nil || m.node == nil {
		return nil, fmt.Errorf("cluster: member unavailable for reads")
	}
	return readpath.NewReader(m.node, m.server, c.readMetrics), nil
}

// leaderRead resolves the leader and serves one read through fn, retrying
// through leadership changes until ctx expires: a read that raced a
// failover is re-routed to the new leader rather than surfaced as an
// error, matching what a client-side primary resolver would do.
func (c *Cluster) leaderRead(ctx context.Context, fn func(*readpath.Reader) (readpath.Result, error)) (readpath.Result, error) {
	for {
		if m := c.Leader(); m != nil && m.Spec.Kind == KindMySQL {
			r, err := c.readerFor(m)
			if err == nil {
				res, err := fn(r)
				if err == nil {
					return res, nil
				}
				if !errors.Is(err, raft.ErrNotLeader) && !errors.Is(err, raft.ErrLeadershipLost) {
					return readpath.Result{}, err
				}
				// Deposed mid-read; re-resolve.
			}
		}
		select {
		case <-ctx.Done():
			return readpath.Result{}, fmt.Errorf("cluster: linearizable read: %w", ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// ReadLinearizable serves a linearizable read from the current leader via
// the ReadIndex protocol (one quorum round plus applier wait).
func (c *Cluster) ReadLinearizable(ctx context.Context, key string) (readpath.Result, error) {
	return c.leaderRead(ctx, func(r *readpath.Reader) (readpath.Result, error) {
		return r.ReadLinearizable(ctx, key)
	})
}

// ReadLease serves a leader-local read under the leader lease, falling
// back to ReadIndex when the lease is unsafe.
func (c *Cluster) ReadLease(ctx context.Context, key string) (readpath.Result, error) {
	return c.leaderRead(ctx, func(r *readpath.Reader) (readpath.Result, error) {
		return r.ReadLease(ctx, key)
	})
}

// ReadAtSession serves a read-your-writes read from the named MySQL
// member (typically a follower replica), blocking until that member has
// applied the session token's last write.
func (c *Cluster) ReadAtSession(ctx context.Context, id wire.NodeID, tok readpath.Token, key string) (readpath.Result, error) {
	r, err := c.readerFor(c.Member(id))
	if err != nil {
		return readpath.Result{}, fmt.Errorf("cluster: session read at %s: %w", id, err)
	}
	return r.ReadSession(ctx, tok, key)
}
