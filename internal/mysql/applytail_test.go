package mysql

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestApplyCatchesUpThroughFilesThenFromMemory: a replica more than the
// relay log's in-memory tail behind the leader catches up through the
// file path, then keeps applying from memory, and ends with the leader's
// engine state.
func TestApplyCatchesUpThroughFilesThenFromMemory(t *testing.T) {
	leader, _ := newPrimary(t)
	r := newReplica(t)
	ctx := context.Background()
	written := 0
	writeBurst := func(n int) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, 16)
		for w := 0; w < 16; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < n; i += 16 {
					k := written + i
					if _, err := leader.Set(ctx, fmt.Sprintf("k%d", k%400), []byte(fmt.Sprintf("v%d", k))); err != nil {
						errs <- err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
		written += n
	}
	// ship copies the leader's new entries into the replica's relay log, as
	// raft would on a follower, and commits them.
	ship := func() {
		t.Helper()
		from, to := r.next, leader.Log().LastOpID().Index
		entries, err := leader.Log().Entries(from, to)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if err := r.s.Log().Append(e); err != nil {
				t.Fatal(err)
			}
		}
		r.next = to + 1
		r.f.mu.Lock()
		r.f.next = r.next
		r.f.mu.Unlock()
		r.f.release(to)
	}
	waitApplied := func(index uint64) {
		t.Helper()
		ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		if err := r.s.WaitForApplied(ctx, index); err != nil {
			t.Fatalf("replica never applied %d: %v", index, err)
		}
	}

	writeBurst(1300)
	ship()
	waitApplied(r.next - 1)
	caughtUp := r.s.Log().Stats().FileReads
	if caughtUp == 0 {
		t.Fatal("a replica 1300 entries behind caught up without reading the files")
	}
	for round := 0; round < 10; round++ {
		writeBurst(20)
		ship()
		waitApplied(r.next - 1)
	}
	if got := r.s.Log().Stats().FileReads; got != caughtUp {
		t.Fatalf("a caught-up replica read the files %d more times", got-caughtUp)
	}
	if got, want := r.s.Engine().Checksum(), leader.Engine().Checksum(); got != want {
		t.Fatalf("replica engine checksum %08x, leader %08x", got, want)
	}
	if got, want := r.s.Engine().LastCommitted(), leader.Engine().LastCommitted(); got != want {
		t.Fatalf("replica engine cursor %v, leader %v", got, want)
	}
}
