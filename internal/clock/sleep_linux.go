package clock

import (
	"errors"
	"os"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// On Linux a wait blocks reading a CLOCK_MONOTONIC timerfd armed for d,
// wrapped in an os.File so the runtime's netpoller owns it, with the
// file's read deadline also set to now+d. Whichever fires first ends it:
//   - while the process is idle, the runtime sits in epoll_wait with a
//     whole-millisecond timeout, and the timerfd turning readable wakes
//     it on time;
//   - while the Ps are busy, the runtime runs its timers at every
//     scheduling point, so the deadline fires on time without a netpoll
//     round trip.
//
// Both clocks start after the wait's start, so neither ends it early.
// Waiters come from a process-wide free list: the list never holds more
// timerfds than the peak number of concurrent waits.

const (
	clockMonotonic = 1
	tfdNonblock    = syscall.O_NONBLOCK
	tfdCloexec     = syscall.O_CLOEXEC
)

type waiter struct {
	fd   uintptr
	f    *os.File
	rc   syscall.RawConn
	read func(fd uintptr) bool // w.drain, bound once so a wait does not allocate it
	err  error                 // the last read's error
	spec [2]syscall.Timespec   // itimerspec: interval (zero), then value
	buf  [8]byte               // the expiry count
}

var waiters struct {
	sync.Mutex
	free []*waiter
}

func sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(d)
	w := takeWaiter()
	if w != nil && w.wait(d, deadline) {
		putWaiter(w)
		return
	}
	// No timerfd (the descriptor limit, say) or a failed one: finish on
	// the runtime's timer.
	if w != nil {
		w.f.Close()
	}
	time.Sleep(time.Until(deadline))
}

// wait arms the timerfd for d and blocks until it expires or deadline
// passes. It reports false if the descriptor failed and must be dropped.
// Re-arming resets the expiry count, so an expiry left unread by an
// earlier wait that its deadline ended does not end this one.
func (w *waiter) wait(d time.Duration, deadline time.Time) bool {
	w.spec[1] = syscall.NsecToTimespec(int64(d))
	if _, _, e := syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, w.fd, 0,
		uintptr(unsafe.Pointer(&w.spec)), 0, 0, 0); e != 0 {
		return false
	}
	if w.f.SetReadDeadline(deadline) != nil {
		return false
	}
	if err := w.rc.Read(w.read); err != nil {
		return errors.Is(err, os.ErrDeadlineExceeded)
	}
	return w.err == nil
}

// drain reads the expiry count; it returns false, to wait on, while the
// timer has not expired.
func (w *waiter) drain(fd uintptr) bool {
	_, w.err = syscall.Read(int(fd), w.buf[:])
	return w.err != syscall.EAGAIN && w.err != syscall.EINTR
}

func takeWaiter() *waiter {
	waiters.Lock()
	if n := len(waiters.free); n > 0 {
		w := waiters.free[n-1]
		waiters.free = waiters.free[:n-1]
		waiters.Unlock()
		return w
	}
	waiters.Unlock()
	return newWaiter()
}

func putWaiter(w *waiter) {
	waiters.Lock()
	waiters.free = append(waiters.free, w)
	waiters.Unlock()
}

// newWaiter returns a waiter on a fresh timerfd, or nil if none can be had.
func newWaiter() *waiter {
	fd, _, e := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if e != 0 {
		return nil
	}
	w := &waiter{fd: fd, f: os.NewFile(fd, "timerfd")}
	rc, err := w.f.SyscallConn()
	if err != nil {
		w.f.Close()
		return nil
	}
	w.rc, w.read = rc, w.drain
	return w
}
