// Package metrics provides the measurement primitives used by the
// reproduction harness: latency histograms with percentile summaries
// (Table 2 and Figures 5a/5c of the paper), monotonic counters, and
// throughput time series (Figures 5b/5d).
//
// All types are safe for concurrent use.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// Histogram records duration samples and reports percentile summaries.
// By default it keeps every sample — the workloads in this repository
// record at most a few million samples per run, which is well within
// memory budget and keeps percentiles exact rather than approximated.
// NewHistogramCapped opts into bounded memory for open-ended runs
// (read-heavy benchmarks): past the cap, reservoir sampling (Vitter's
// Algorithm R) keeps a uniform sample of everything observed and the
// percentile reports become approximations over that reservoir.
type Histogram struct {
	mu      sync.Mutex
	samples []time.Duration
	sorted  bool
	cap     int           // 0 = unbounded (exact percentiles)
	seen    int64         // total Observe calls, including evicted samples
	sum     time.Duration // running total over every sample ever observed
	rng     uint64        // xorshift state for reservoir replacement
}

// NewHistogram returns an empty histogram keeping every sample.
func NewHistogram() *Histogram { return &Histogram{} }

// NewHistogramCapped returns a histogram holding at most capacity samples
// via reservoir sampling. Count still reports everything observed;
// percentiles are approximate once the cap is exceeded. A capacity <= 0
// falls back to unbounded.
func NewHistogramCapped(capacity int) *Histogram {
	if capacity <= 0 {
		return NewHistogram()
	}
	// Deterministic non-zero seed: runs are reproducible and two
	// histograms with the same observation stream hold the same reservoir.
	return &Histogram{cap: capacity, rng: 0x9E3779B97F4A7C15}
}

// rand64 is a xorshift64 step; callers must hold mu.
func (h *Histogram) rand64() uint64 {
	h.rng ^= h.rng << 13
	h.rng ^= h.rng >> 7
	h.rng ^= h.rng << 17
	return h.rng
}

// Observe records one sample.
func (h *Histogram) Observe(d time.Duration) {
	h.mu.Lock()
	h.seen++
	h.sum += d
	switch {
	case h.cap == 0 || len(h.samples) < h.cap:
		h.samples = append(h.samples, d)
		h.sorted = false
	default:
		// Algorithm R: replace a random slot with probability cap/seen,
		// keeping the reservoir a uniform sample of all seen values.
		if j := h.rand64() % uint64(h.seen); j < uint64(h.cap) {
			h.samples[j] = d
			h.sorted = false
		}
	}
	h.mu.Unlock()
}

// Count returns the number of observed samples, including any evicted
// from a capped histogram's reservoir.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return int(h.seen)
}

// Retained returns how many samples are held in memory (== Count for
// unbounded histograms; at most the cap for capped ones).
func (h *Histogram) Retained() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.samples)
}

// Sum returns the exact running total over every sample ever observed,
// including samples evicted from a capped histogram's reservoir. Prometheus
// summaries report it as the _sum series.
func (h *Histogram) Sum() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// sortLocked sorts the sample slice if needed. Callers must hold mu.
func (h *Histogram) sortLocked() {
	if !h.sorted {
		sort.Slice(h.samples, func(i, j int) bool { return h.samples[i] < h.samples[j] })
		h.sorted = true
	}
}

// Percentile returns the p-th percentile (0 < p <= 100) using the
// nearest-rank method. It returns 0 when the histogram is empty.
func (h *Histogram) Percentile(p float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	h.sortLocked()
	rank := int(math.Ceil(p / 100 * float64(len(h.samples))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(h.samples) {
		rank = len(h.samples)
	}
	return h.samples[rank-1]
}

// Mean returns the arithmetic mean of the samples, or 0 when empty.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	var total time.Duration
	for _, s := range h.samples {
		total += s
	}
	return total / time.Duration(len(h.samples))
}

// Min returns the smallest sample, or 0 when empty.
func (h *Histogram) Min() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	h.sortLocked()
	return h.samples[0]
}

// Max returns the largest sample, or 0 when empty.
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	h.sortLocked()
	return h.samples[len(h.samples)-1]
}

// Summary is a point-in-time percentile digest of a histogram. Its JSON
// form (integer nanoseconds) is the per-stage row of GET /trace.
type Summary struct {
	Count  int           `json:"count"`
	Min    time.Duration `json:"min_ns"`
	Median time.Duration `json:"p50_ns"`
	P95    time.Duration `json:"p95_ns"`
	P99    time.Duration `json:"p99_ns"`
	Max    time.Duration `json:"max_ns"`
	Mean   time.Duration `json:"mean_ns"`
}

// Summarize returns the digest the paper's Table 2 reports (p99, p95,
// median, average), plus min/max/count.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count:  h.Count(),
		Min:    h.Min(),
		Median: h.Percentile(50),
		P95:    h.Percentile(95),
		P99:    h.Percentile(99),
		Max:    h.Max(),
		Mean:   h.Mean(),
	}
}

// Buckets returns a fixed-width histogram of the samples between min and
// max using n buckets, for rendering Figure 5-style latency histograms.
// The returned counts have length n; bucket i covers
// [min + i*width, min + (i+1)*width).
func (h *Histogram) Buckets(min, max time.Duration, n int) []int {
	counts := make([]int, n)
	if n == 0 || max <= min {
		return counts
	}
	width := (max - min) / time.Duration(n)
	if width == 0 {
		width = 1
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, s := range h.samples {
		if s < min || s >= max {
			continue
		}
		i := int((s - min) / width)
		if i >= n {
			i = n - 1
		}
		counts[i]++
	}
	return counts
}

// String renders a one-line summary in microseconds, the unit used by the
// paper's latency figures.
func (h *Histogram) String() string {
	s := h.Summarize()
	return fmt.Sprintf("n=%d avg=%.1fus p50=%.1fus p95=%.1fus p99=%.1fus max=%.1fus",
		s.Count, us(s.Mean), us(s.Median), us(s.P95), us(s.P99), us(s.Max))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// IntHistogram records integer-valued samples (fsync batch sizes, byte
// counts) on top of Histogram's storage, sharing its exact-percentile and
// reservoir-sampling behaviour.
type IntHistogram struct {
	h *Histogram
}

// NewIntHistogram returns an empty integer histogram keeping every sample.
func NewIntHistogram() *IntHistogram { return &IntHistogram{h: NewHistogram()} }

// NewIntHistogramCapped returns an integer histogram holding at most
// capacity samples via reservoir sampling.
func NewIntHistogramCapped(capacity int) *IntHistogram {
	return &IntHistogram{h: NewHistogramCapped(capacity)}
}

// Observe records one sample.
func (h *IntHistogram) Observe(v int64) { h.h.Observe(time.Duration(v)) }

// Count returns the number of observed samples, including any evicted
// from a capped histogram's reservoir.
func (h *IntHistogram) Count() int { return h.h.Count() }

// IntSummary is a point-in-time percentile digest of an IntHistogram.
type IntSummary struct {
	Count  int   `json:"count"`
	Min    int64 `json:"min"`
	Median int64 `json:"p50"`
	P95    int64 `json:"p95"`
	P99    int64 `json:"p99"`
	Max    int64 `json:"max"`
	Mean   int64 `json:"mean"`
}

// Summarize returns the percentile digest of the observed values.
func (h *IntHistogram) Summarize() IntSummary {
	s := h.h.Summarize()
	return IntSummary{
		Count:  s.Count,
		Min:    int64(s.Min),
		Median: int64(s.Median),
		P95:    int64(s.P95),
		P99:    int64(s.P99),
		Max:    int64(s.Max),
		Mean:   int64(s.Mean),
	}
}

// String renders a one-line summary.
func (h *IntHistogram) String() string {
	s := h.Summarize()
	return fmt.Sprintf("n=%d avg=%d p50=%d p95=%d p99=%d max=%d",
		s.Count, s.Mean, s.Median, s.P95, s.P99, s.Max)
}

// Counter is a monotonically increasing concurrent counter.
type Counter struct {
	mu sync.Mutex
	n  int64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) {
	c.mu.Lock()
	c.n += delta
	c.mu.Unlock()
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Series accumulates event timestamps and buckets them into a
// commits-per-interval time series, as plotted in Figures 5b and 5d.
type Series struct {
	mu     sync.Mutex
	start  time.Time
	stamps []time.Duration // offsets from start
}

// NewSeries returns a Series anchored at start.
func NewSeries(start time.Time) *Series { return &Series{start: start} }

// Record registers one event at time t. Events before the anchor are
// clamped to offset zero.
func (s *Series) Record(t time.Time) {
	off := t.Sub(s.start)
	if off < 0 {
		off = 0
	}
	s.mu.Lock()
	s.stamps = append(s.stamps, off)
	s.mu.Unlock()
}

// Count returns the number of recorded events.
func (s *Series) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.stamps)
}

// PerInterval buckets the events into consecutive windows of the given
// width covering [0, horizon) and returns the per-window counts.
func (s *Series) PerInterval(width, horizon time.Duration) []int {
	if width <= 0 || horizon <= 0 {
		return nil
	}
	n := int((horizon + width - 1) / width)
	counts := make([]int, n)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, off := range s.stamps {
		if off >= horizon {
			continue
		}
		counts[int(off/width)]++
	}
	return counts
}

// Table formats rows of labelled duration summaries as an aligned text
// table, used by cmd/repro to print paper-style tables.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; cells are formatted with fmt.Sprint.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprint(c)
	}
	t.rows = append(t.rows, row)
}

// String renders the table with space-padded columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
