package multiraft

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"myraft/internal/wire"
)

// TestShardSplit is the online-split acceptance scenario: a 1-shard
// runtime splits into 2 under a concurrent routed write workload. After
// cutover: zero acked-write loss (every acked key reads back with its
// last acked value through the router), both rings hold internally
// consistent engine/GTID state, the router version bumped twice (fence +
// cutover), and every stale-version rejection was retried to success.
func TestShardSplit(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rt, err := New(testOptions(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if err := rt.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}

	// Concurrent routed writers: each loops over its own key space,
	// recording the last acked value per key. Writes keep flowing
	// through the fence, drain, copy, and cutover.
	const writers = 4
	var (
		ackedMu sync.Mutex
		acked   = make(map[string]string)
		stop    atomic.Bool
		failed  atomic.Int64
		wrote   atomic.Int64
		wg      sync.WaitGroup
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := rt.NewClient(0)
			for i := 0; !stop.Load(); i++ {
				key := fmt.Sprintf("w%d-key-%d", w, i%64)
				val := fmt.Sprintf("w%d-val-%d", w, i)
				wctx, wcancel := context.WithTimeout(ctx, 20*time.Second)
				_, err := cl.Write(wctx, key, []byte(val))
				wcancel()
				if err != nil {
					// Write retries internally through fences and
					// reloads; an error here means a write was NOT acked
					// (fine for the loss check) but if the parent ctx is
					// alive it signals retries did not converge.
					if ctx.Err() == nil {
						failed.Add(1)
					}
					continue
				}
				wrote.Add(1)
				ackedMu.Lock()
				acked[key] = val
				ackedMu.Unlock()
			}
		}(w)
	}

	// Let the workload establish, then split shard 0 online.
	waitForCount(t, &wrote, 50, 30*time.Second)
	report, err := rt.Split(ctx, 0)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	// A moment of post-cutover traffic so stale-version retries exercise
	// the new table, then stop the writers.
	waitForCount(t, &wrote, wrote.Load()+50, 30*time.Second)
	stop.Store(true)
	wg.Wait()

	if failed.Load() != 0 {
		t.Fatalf("%d routed writes failed to retry to success", failed.Load())
	}
	if rt.Shards() != 2 {
		t.Fatalf("shards = %d, want 2", rt.Shards())
	}
	if report.NewShard != 1 || report.Source != 0 {
		t.Fatalf("unexpected report %+v", report)
	}
	// Fence + cutover = two version bumps over the initial table.
	if got := rt.Router().Version(); got != 3 || report.TableVersion != 3 {
		t.Fatalf("router version = %d (report %d), want 3", got, report.TableVersion)
	}
	if rt.StaleRejects() == 0 && rt.FenceWaits() == 0 {
		t.Logf("note: split completed without observing a fence wait or stale reject")
	}

	// Zero acked-write loss: every acked key reads back its last acked
	// value through the router, linearizably, from whichever ring owns it
	// now. Keys must also live on the ring the table says owns them.
	cl := rt.NewClient(0)
	moved := 0
	for key, want := range acked {
		res, err := cl.ReadLinearizable(ctx, key)
		if err != nil {
			t.Fatalf("read %s: %v", key, err)
		}
		if !res.Found || string(res.Value) != want {
			t.Fatalf("acked write lost: key %s = %q, want %q (found=%v)", key, res.Value, want, res.Found)
		}
		if rt.Router().ShardFor(key) == report.NewShard {
			moved++
		}
	}
	if moved == 0 {
		t.Fatalf("no acked keys routed to the new shard; split moved nothing observable")
	}
	t.Logf("split moved %d rows (%d/%d acked keys now on shard %d), stale rejects=%d fence waits=%d",
		report.RowsMoved, moved, len(acked), report.NewShard, rt.StaleRejects(), rt.FenceWaits())

	// Both rings are internally consistent: engine checksums converge
	// across members and the GTID sets match per ring (appliers are
	// given time to drain).
	for s := 0; s < rt.Shards(); s++ {
		waitShardConverged(t, rt, wire.ShardID(s), 30*time.Second)
	}

	// The split cleaned the moved rows off the source: no key routed to
	// the new shard may still exist on the source ring's engines.
	srcPrimary, err := rt.Shard(0).AnyPrimary(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for key := range acked {
		if rt.Router().ShardFor(key) != report.NewShard {
			continue
		}
		if _, found := srcPrimary.Server().Read(key); found {
			t.Fatalf("moved key %s still present on source shard", key)
		}
	}
}

// TestSplitDrainDoesNotBlockRetainedRange: writes to the subrange the
// source KEEPS must keep committing while the moved subrange is fenced —
// the drain waits only for pre-fence admissions, not for ongoing traffic.
func TestSplitRetainedRangeKeepsWriting(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rt, err := New(testOptions(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if err := rt.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wrote atomic.Int64
	var failed atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl := rt.NewClient(0)
		for i := 0; !stop.Load(); i++ {
			wctx, wcancel := context.WithTimeout(ctx, 20*time.Second)
			_, err := cl.Write(wctx, fmt.Sprintf("retain-%d", i), []byte("v"))
			wcancel()
			if err != nil && ctx.Err() == nil {
				failed.Add(1)
			} else if err == nil {
				wrote.Add(1)
			}
		}
	}()
	waitForCount(t, &wrote, 20, 30*time.Second)
	if _, err := rt.Split(ctx, 0); err != nil {
		t.Fatalf("split: %v", err)
	}
	after := wrote.Load()
	waitForCount(t, &wrote, after+20, 30*time.Second)
	stop.Store(true)
	wg.Wait()
	if failed.Load() != 0 {
		t.Fatalf("%d writes failed during split", failed.Load())
	}
}

// TestSplitUnknownShard: splitting a shard that does not exist fails
// cleanly without touching the table.
func TestSplitUnknownShard(t *testing.T) {
	rt, err := New(testOptions(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	before := rt.Router().Version()
	if _, err := rt.Split(context.Background(), 7); err == nil {
		t.Fatal("split of unknown shard succeeded")
	}
	if got := rt.Router().Version(); got != before {
		t.Fatalf("failed split moved the table: %d -> %d", before, got)
	}
}

// waitShardConverged waits until every up member of a shard reports the
// same engine checksum and GTID set, failing on divergence at the
// deadline.
func waitShardConverged(t *testing.T, rt *Runtime, shard wire.ShardID, timeout time.Duration) {
	t.Helper()
	c := rt.Shard(shard)
	deadline := time.Now().Add(timeout)
	for {
		converged := true
		sums := c.EngineChecksums()
		var firstSum uint32
		first := true
		for _, sum := range sums {
			if first {
				firstSum, first = sum, false
				continue
			}
			if sum != firstSum {
				converged = false
			}
		}
		gtids := ""
		for _, m := range c.Members() {
			if m.Server() == nil || m.IsDown() {
				continue
			}
			g := m.Server().GTIDExecuted().String()
			if gtids == "" {
				gtids = g
			} else if g != gtids {
				converged = false
			}
		}
		if converged {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard %d did not converge: checksums=%v", shard, sums)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func waitForCount(t *testing.T, c *atomic.Int64, want int64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for c.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for count %d (have %d)", want, c.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A routed read that resolved its shard just before a split's cutover
// must not be served by the old owner after the split has deleted the
// moved rows there: the client notices the table reload after the read and
// re-routes. Found by the unified chaos harness, whose readers — unlike
// the old split smoke — keep reading across the cutover.
func TestRoutedReadAcrossSplitCutover(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	rt, err := New(testOptions(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if err := rt.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	// A key in the upper half of the hash space: the half a split of the
	// lone full-range shard moves to the new ring.
	var key string
	for i := 0; hashKey(key) <= math.MaxUint32/2; i++ {
		key = fmt.Sprintf("cut-%d", i)
	}
	cl := rt.NewClient(0)
	if _, err := cl.Write(ctx, key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	// The read resolves shard 0 under the pre-split table; the whole
	// split — cutover and cleanup included — then runs before the shard
	// read does.
	var once sync.Once
	cl.testAfterRoute = func() {
		once.Do(func() {
			if _, err := rt.Split(ctx, 0); err != nil {
				t.Errorf("split: %v", err)
			}
		})
	}
	res, err := cl.ReadLinearizable(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || string(res.Value) != "v" {
		t.Fatalf("read of acked key %s across the cutover: found=%v value=%q", key, res.Found, res.Value)
	}
	if got := cl.ShardFor(key); got != 1 {
		t.Fatalf("key %s is owned by shard %d after the split, want 1: the read raced nothing", key, got)
	}
}
