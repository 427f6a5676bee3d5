package readpath

import (
	"fmt"

	"myraft/internal/metrics"
)

// Metrics aggregates read-path observability: one latency histogram per
// consistency level, plus the counters the operators of a lease-based
// read path watch — how often the lease fell back to ReadIndex, and how
// many reads were rejected outright rather than served possibly stale.
type Metrics struct {
	Linearizable *metrics.Histogram
	Lease        *metrics.Histogram
	Session      *metrics.Histogram

	// LeaseFallbacks counts lease reads that degraded to a ReadIndex
	// round (lease not yet earned, expired, or disabled).
	LeaseFallbacks metrics.Counter
	// StaleRejections counts reads refused entirely: the member could not
	// prove the result fresh (lost leadership, no quorum, applier stuck)
	// and erred rather than serving stale data.
	StaleRejections metrics.Counter
}

// histogramCap bounds each level's latency reservoir: a member observes
// every read it serves for the life of the process, so memory must stay
// flat however long it runs (as metrics.registryHistogramCap does for
// the tracer's histograms).
const histogramCap = 4096

// NewMetrics returns a sink whose histograms each retain at most
// histogramCap samples (reservoir sampling) while counting every read.
func NewMetrics() *Metrics {
	return &Metrics{
		Linearizable: metrics.NewHistogramCapped(histogramCap),
		Lease:        metrics.NewHistogramCapped(histogramCap),
		Session:      metrics.NewHistogramCapped(histogramCap),
	}
}

func (m *Metrics) hist(l Level) *metrics.Histogram {
	switch l {
	case LevelLease:
		return m.Lease
	case LevelSession:
		return m.Session
	default:
		return m.Linearizable
	}
}

// String renders a per-level summary plus the counters.
func (m *Metrics) String() string {
	return fmt.Sprintf("linearizable: %s\nlease:        %s\nsession:      %s\nlease fallbacks=%d stale rejections=%d",
		m.Linearizable, m.Lease, m.Session,
		m.LeaseFallbacks.Value(), m.StaleRejections.Value())
}
