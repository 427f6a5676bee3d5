package clock

import (
	"fmt"
	"testing"
	"time"
)

func TestSleepNeverEarly(t *testing.T) {
	for _, d := range []time.Duration{0, -time.Nanosecond, time.Microsecond,
		50 * time.Microsecond, 200 * time.Microsecond, 2 * time.Millisecond} {
		for i := 0; i < 20; i++ {
			start := time.Now()
			Sleep(d)
			if got := time.Since(start); got < d {
				t.Fatalf("Sleep(%v) returned after %v", d, got)
			}
		}
	}
}

func TestSleepNonPositiveReturnsAtOnce(t *testing.T) {
	start := time.Now()
	for i := 0; i < 1000; i++ {
		Sleep(0)
		Sleep(-time.Second)
	}
	// A thousand real waits of even 1 µs would take well over a second
	// on the runtime's timer; returning at once takes microseconds.
	if got := time.Since(start); got > 500*time.Millisecond {
		t.Fatalf("2000 non-positive sleeps took %v", got)
	}
}

func TestRealSleepIsPrecise(t *testing.T) {
	start := time.Now()
	Real().Sleep(time.Millisecond)
	if got := time.Since(start); got < time.Millisecond {
		t.Fatalf("Real().Sleep(1ms) returned after %v", got)
	}
}

// BenchmarkSleepPrecise reports how far past d each wait ends, for Sleep
// beside time.Sleep. It is a layer row, not an assertion: the overshoot
// depends on the host and its load. On an idle 2-vCPU Linux VM Sleep
// overshoots by 10–40 µs and time.Sleep by about 900 µs at 200 µs.
func BenchmarkSleepPrecise(b *testing.B) {
	for _, d := range []time.Duration{200 * time.Microsecond, time.Millisecond} {
		for _, s := range []struct {
			name  string
			sleep func(time.Duration)
		}{{"clock.Sleep", Sleep}, {"time.Sleep", time.Sleep}} {
			b.Run(fmt.Sprintf("%s/%v", s.name, d), func(b *testing.B) {
				var over time.Duration
				for i := 0; i < b.N; i++ {
					start := time.Now()
					s.sleep(d)
					over += time.Since(start) - d
				}
				b.ReportMetric(float64(over)/float64(b.N), "overshoot-ns/op")
			})
		}
	}
}
