//go:build !linux

package clock

import "time"

// sleep falls back to the runtime's timer where timerfd does not exist.
func sleep(d time.Duration) { time.Sleep(d) }
