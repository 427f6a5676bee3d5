package clock

import (
	"sync"
	"testing"
	"time"
)

func TestSleepAllocatesNothing(t *testing.T) {
	Sleep(time.Microsecond) // put a waiter on the free list
	if n := testing.AllocsPerRun(100, func() { Sleep(20 * time.Microsecond) }); n != 0 {
		t.Fatalf("Sleep allocates %v times per call, want 0", n)
	}
}

func TestConcurrentSleepersReuseDescriptors(t *testing.T) {
	const sleepers = 64
	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < sleepers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				Sleep(time.Millisecond)
			}()
		}
		close(start)
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: not every sleeper woke", round)
		}
		waiters.Lock()
		free := len(waiters.free)
		waiters.Unlock()
		if free > sleepers {
			t.Fatalf("round %d: free list holds %d timerfds after %d concurrent sleepers", round, free, sleepers)
		}
	}
}

func TestDeadlineEndsWaitAlone(t *testing.T) {
	w := takeWaiter()
	if w == nil {
		t.Fatal("no timerfd")
	}
	defer putWaiter(w)
	start := time.Now()
	// The timerfd is armed for an hour; only the read deadline can end this.
	if !w.wait(time.Hour, start.Add(time.Millisecond)) {
		t.Fatal("wait failed")
	}
	if got := time.Since(start); got < time.Millisecond || got > 10*time.Second {
		t.Fatalf("deadline-bound wait took %v, want ≥ 1ms and far below the timerfd's hour", got)
	}
}

func TestStaleExpiryDoesNotWakeNextUserEarly(t *testing.T) {
	w := takeWaiter()
	if w == nil {
		t.Fatal("no timerfd")
	}
	defer putWaiter(w)
	// The deadline ends this wait before the timerfd expires; the expiry
	// then lands with nobody reading it and readies the descriptor.
	if !w.wait(5*time.Millisecond, time.Now().Add(100*time.Microsecond)) {
		t.Fatal("wait failed")
	}
	time.Sleep(20 * time.Millisecond)
	// The next wait on the same descriptor re-arms it, which clears the
	// stale count, so it must still last its full length.
	const d = 20 * time.Millisecond
	start := time.Now()
	if !w.wait(d, start.Add(d)) {
		t.Fatal("wait failed")
	}
	if got := time.Since(start); got < d {
		t.Fatalf("wait after a stale expiry returned after %v, want ≥ %v", got, d)
	}
}
