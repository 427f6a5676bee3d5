package multiraft

// client.go is the shard-aware client: every key is routed through the
// runtime's Router to its owning shard, then served by that shard's
// single-ring client — writes go to the shard primary via discovery, and
// the PR 1 read levels (linearizable / lease / session) apply per shard
// unchanged, because each shard is a full replicaset.
//
// Writes participate in the split cutover protocol: each attempt routes
// under one table version, registers in-flight in the runtime's write
// gate, and revalidates the route before touching the shard. A reload
// between route and revalidation is a stale-version rejection (the write
// re-routes and retries); a fenced range is a fence wait (the split is
// draining or copying that subrange — back off and retry until the new
// owner is published). Both outcomes are counted on the runtime.

import (
	"context"
	"errors"
	"sync"
	"time"

	"myraft/internal/cluster"
	"myraft/internal/readpath"
	"myraft/internal/wire"
)

// ErrFenced reports a single-attempt write against a range fenced by an
// in-progress shard split.
var ErrFenced = errors.New("multiraft: range fenced by shard split")

// Client routes keys to shards and shard traffic to shard primaries.
// Per-shard clients are created lazily so a client built before a split
// can keep writing after new shards appear.
type Client struct {
	rt  *Runtime
	rtt time.Duration
	// RetryInterval paces re-routing after fence waits and stale-version
	// rejections.
	RetryInterval time.Duration

	mu      sync.Mutex
	clients map[wire.ShardID]*cluster.Client

	// testAfterAdmit, when set, runs between in-flight admission and
	// route revalidation — the window a concurrent Reload turns into a
	// stale-version rejection. Tests use it to exercise that path
	// deterministically; it is nil in production.
	testAfterAdmit func()
	// testAfterRoute is the read path's twin: it runs between a read's
	// route resolution and the shard read.
	testAfterRoute func()
}

// NewClient creates a routed client with the given simulated client RTT
// (applied per shard attempt, as in cluster.Client).
func (rt *Runtime) NewClient(rtt time.Duration) *Client {
	return &Client{
		rt:            rt,
		rtt:           rtt,
		RetryInterval: 2 * time.Millisecond,
		clients:       make(map[wire.ShardID]*cluster.Client),
	}
}

// ShardFor reports which shard serves the key under the current table.
func (c *Client) ShardFor(key string) wire.ShardID { return c.rt.router.ShardFor(key) }

// shardClient returns (creating on first use) the single-ring client for
// one shard.
func (c *Client) shardClient(shard wire.ShardID) *cluster.Client {
	c.mu.Lock()
	defer c.mu.Unlock()
	cl := c.clients[shard]
	if cl == nil {
		ring := c.rt.Shard(shard)
		if ring == nil {
			return nil
		}
		cl = ring.NewClient(c.rtt)
		c.clients[shard] = cl
	}
	return cl
}

// routedClient resolves the key's owning shard under the current table
// (reads tolerate fencing: the fenced range still names the shard that
// serves its data).
func (c *Client) routedClient(key string) *cluster.Client {
	return c.shardClient(c.rt.router.ShardFor(key))
}

// routedRead serves one leveled read from the key's owning shard and
// re-routes it if the routing table was reloaded meanwhile. A split's
// cutover is followed by the deletion of the moved rows from the source
// ring, so a read that resolved the old owner and ran across the cutover
// could report an acknowledged key missing; an unchanged table version
// after the read means no cutover was published while it ran. (A reload
// that did not move this key costs one needless re-read.)
func (c *Client) routedRead(key string, read func(*cluster.Client) (readpath.Result, error)) (readpath.Result, error) {
	for {
		ri := c.rt.router.Route(key)
		if c.testAfterRoute != nil {
			c.testAfterRoute()
		}
		res, err := read(c.shardClient(ri.Shard))
		if c.rt.router.Version() == ri.Version {
			return res, err
		}
	}
}

// Write upserts key=value on the owning shard's primary, retrying across
// failovers, fence waits, and routing-table reloads until ctx expires.
func (c *Client) Write(ctx context.Context, key string, value []byte) (cluster.WriteResult, error) {
	start := time.Now()
	retries := 0
	for {
		res, err := c.tryRoutedWrite(ctx, key, value)
		if err == nil {
			res.Retries = retries
			res.Latency = time.Since(start)
			return res, nil
		}
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			return cluster.WriteResult{}, err
		}
		retries++
		select {
		case <-ctx.Done():
			return cluster.WriteResult{}, ctx.Err()
		case <-time.After(c.retryInterval()):
		}
	}
}

// TryWrite attempts one write on the owning shard without failover or
// reroute retries. A fenced range fails with ErrFenced; a table reload
// between route and revalidation fails like a failed attempt.
func (c *Client) TryWrite(ctx context.Context, key string, value []byte) (cluster.WriteResult, error) {
	return c.tryRoutedWrite(ctx, key, value)
}

// tryRoutedWrite performs one route → admit → revalidate → write attempt.
func (c *Client) tryRoutedWrite(ctx context.Context, key string, value []byte) (cluster.WriteResult, error) {
	ri := c.rt.router.Route(key)
	if ri.Fenced {
		c.rt.fenceWaits.Add(1)
		return cluster.WriteResult{}, ErrFenced
	}
	release := c.rt.gate.enter(ri.Version)
	defer release()
	if c.testAfterAdmit != nil {
		c.testAfterAdmit()
	}
	if cur := c.rt.router.Route(key); cur != ri {
		// The table moved under us after we were admitted: writing to the
		// shard we resolved could land the row on a ring that no longer
		// (or doesn't yet) own it. Reject as stale and let Write re-route.
		c.rt.staleRejects.Add(1)
		return cluster.WriteResult{}, errors.New("multiraft: stale routing table version, rerouting")
	}
	cl := c.shardClient(ri.Shard)
	if cl == nil {
		return cluster.WriteResult{}, errors.New("multiraft: routed to unknown shard")
	}
	return cl.TryWrite(ctx, key, value)
}

func (c *Client) retryInterval() time.Duration {
	if c.RetryInterval > 0 {
		return c.RetryInterval
	}
	return 2 * time.Millisecond
}

// Read serves a default-level read from the owning shard.
func (c *Client) Read(ctx context.Context, key string) ([]byte, bool, error) {
	return c.routedClient(key).Read(ctx, key)
}

// ReadLinearizable serves a linearizable (ReadIndex) read from the owning
// shard's leader.
func (c *Client) ReadLinearizable(ctx context.Context, key string) (readpath.Result, error) {
	return c.routedRead(key, func(cl *cluster.Client) (readpath.Result, error) {
		return cl.ReadLinearizable(ctx, key)
	})
}

// ReadLease serves a leader-lease read from the owning shard.
func (c *Client) ReadLease(ctx context.Context, key string) (readpath.Result, error) {
	return c.routedRead(key, func(cl *cluster.Client) (readpath.Result, error) {
		return cl.ReadLease(ctx, key)
	})
}

// ReadSession serves a session-consistent read for the key from the given
// member of the owning shard, using the session token accumulated by this
// client's writes to that shard.
func (c *Client) ReadSession(ctx context.Context, id wire.NodeID, key string) (readpath.Result, error) {
	return c.routedRead(key, func(cl *cluster.Client) (readpath.Result, error) {
		return cl.ReadSession(ctx, id, key)
	})
}

// SessionToken reports the session token this client has accumulated on
// the key's owning shard (its last committed OpID there). Tokens are per
// ring: writes to other shards do not advance it.
func (c *Client) SessionToken(key string) readpath.Token {
	return c.routedClient(key).SessionToken()
}
