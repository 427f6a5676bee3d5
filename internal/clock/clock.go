// Package clock provides an abstract time source so that protocol code can
// run against real wall-clock time in production paths and against a
// manually driven fake in tests.
//
// All timing-sensitive components in this repository (Raft election timers,
// heartbeat tickers, semi-sync failure detectors, workload pacing) take a
// Clock rather than calling the time package directly. Tests that need to
// exercise timeout logic deterministically use Fake; everything else uses
// Real.
package clock

import (
	"sync"
	"time"
)

// Clock is an abstract source of time and timers.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// Sleep blocks for at least d.
	Sleep(d time.Duration)
	// After returns a channel that delivers the current time after d.
	After(d time.Duration) <-chan time.Time
	// NewTimer returns a timer that fires once after d.
	NewTimer(d time.Duration) Timer
	// NewTicker returns a ticker that fires every d.
	NewTicker(d time.Duration) Ticker
	// Since returns the elapsed time since t.
	Since(t time.Time) time.Duration
}

// Timer is the subset of time.Timer used by this repository.
type Timer interface {
	// C returns the channel on which the expiry is delivered.
	C() <-chan time.Time
	// Reset re-arms the timer to fire after d.
	Reset(d time.Duration) bool
	// Stop disarms the timer.
	Stop() bool
}

// Ticker is the subset of time.Ticker used by this repository.
type Ticker interface {
	// C returns the channel on which ticks are delivered.
	C() <-chan time.Time
	// Reset changes the tick interval to d.
	Reset(d time.Duration)
	// Stop shuts the ticker down.
	Stop()
}

// Sleep blocks for at least d; for d ≤ 0 it returns at once. Unlike
// time.Sleep it ends close to d whether the process is busy or idle: with
// every P idle the Go runtime parks in epoll_wait with a timeout rounded
// up to whole milliseconds, so time.Sleep(200µs) takes about 1 ms. Every
// modeled latency (a link's delivery time, a device's fsync, an engine's
// staging I/O, a client's round trip) waits here, and Real's Sleep is
// this function. It allocates nothing in steady state, spins nowhere and
// starts no thread.
func Sleep(d time.Duration) { sleep(d) }

// Real returns a Clock backed by the time package.
func Real() Clock { return realClock{} }

type realClock struct{}

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) Sleep(d time.Duration)                  { Sleep(d) }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }
func (realClock) Since(t time.Time) time.Duration        { return time.Since(t) }

func (realClock) NewTimer(d time.Duration) Timer {
	return &realTimer{t: time.NewTimer(d)}
}

func (realClock) NewTicker(d time.Duration) Ticker {
	return &realTicker{t: time.NewTicker(d)}
}

type realTimer struct{ t *time.Timer }

func (r *realTimer) C() <-chan time.Time        { return r.t.C }
func (r *realTimer) Reset(d time.Duration) bool { return r.t.Reset(d) }
func (r *realTimer) Stop() bool                 { return r.t.Stop() }

type realTicker struct{ t *time.Ticker }

func (r *realTicker) C() <-chan time.Time   { return r.t.C }
func (r *realTicker) Reset(d time.Duration) { r.t.Reset(d) }
func (r *realTicker) Stop()                 { r.t.Stop() }

// Fake is a manually driven Clock for deterministic tests. Time only moves
// when Advance is called; timers and tickers registered with the fake fire
// synchronously inside Advance, in expiry order.
type Fake struct {
	mu     sync.Mutex
	now    time.Time
	timers []*fakeTimer
}

// NewFake returns a Fake clock starting at a fixed, arbitrary epoch.
func NewFake() *Fake {
	return &Fake{now: time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)}
}

// Now returns the fake's current time.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// Since returns the elapsed fake time since t.
func (f *Fake) Since(t time.Time) time.Duration { return f.Now().Sub(t) }

// Sleep blocks until the fake clock has been advanced by at least d.
func (f *Fake) Sleep(d time.Duration) { <-f.After(d) }

// After returns a channel that fires once the clock advances past d.
func (f *Fake) After(d time.Duration) <-chan time.Time {
	return f.NewTimer(d).C()
}

// NewTimer registers a one-shot fake timer.
func (f *Fake) NewTimer(d time.Duration) Timer {
	f.mu.Lock()
	defer f.mu.Unlock()
	t := &fakeTimer{
		clock: f,
		ch:    make(chan time.Time, 1),
		when:  f.now.Add(d),
	}
	f.timers = append(f.timers, t)
	return t
}

// NewTicker registers a repeating fake timer.
func (f *Fake) NewTicker(d time.Duration) Ticker {
	f.mu.Lock()
	defer f.mu.Unlock()
	t := &fakeTimer{
		clock:  f,
		ch:     make(chan time.Time, 1),
		when:   f.now.Add(d),
		period: d,
	}
	f.timers = append(f.timers, t)
	return &fakeTicker{t}
}

// Advance moves the fake clock forward by d, firing every timer whose
// expiry falls inside the window, in chronological order.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	target := f.now.Add(d)
	for {
		next := f.nextExpiryLocked(target)
		if next == nil {
			break
		}
		f.now = next.when
		next.fireLocked()
	}
	f.now = target
	f.mu.Unlock()
}

// nextExpiryLocked returns the earliest armed timer expiring at or before
// target, or nil when none remain in the window.
func (f *Fake) nextExpiryLocked(target time.Time) *fakeTimer {
	var best *fakeTimer
	for _, t := range f.timers {
		if t.stopped || t.when.After(target) {
			continue
		}
		if best == nil || t.when.Before(best.when) {
			best = t
		}
	}
	return best
}

type fakeTimer struct {
	clock   *Fake
	ch      chan time.Time
	when    time.Time
	period  time.Duration // 0 for one-shot timers
	stopped bool
}

// fireLocked delivers a tick and either re-arms (ticker) or stops (timer).
// The fake clock's mutex must be held.
func (t *fakeTimer) fireLocked() {
	select {
	case t.ch <- t.when:
	default: // a ticker with an unread tick drops it, like time.Ticker
	}
	if t.period > 0 {
		t.when = t.when.Add(t.period)
	} else {
		t.stopped = true
	}
}

func (t *fakeTimer) C() <-chan time.Time { return t.ch }

func (t *fakeTimer) Reset(d time.Duration) bool {
	t.clock.mu.Lock()
	defer t.clock.mu.Unlock()
	active := !t.stopped
	t.stopped = false
	t.when = t.clock.now.Add(d)
	return active
}

func (t *fakeTimer) Stop() bool {
	t.clock.mu.Lock()
	defer t.clock.mu.Unlock()
	active := !t.stopped
	t.stopped = true
	return active
}

type fakeTicker struct{ *fakeTimer }

func (t *fakeTicker) Reset(d time.Duration) {
	t.clock.mu.Lock()
	defer t.clock.mu.Unlock()
	t.period = d
	t.stopped = false
	t.when = t.clock.now.Add(d)
}

func (t *fakeTicker) Stop() { t.fakeTimer.Stop() }
