package main

import (
	"sort"
	"time"
)

// percentileLadder is the set of percentiles the benchmark reports.
var percentileLadder = []float64{50, 90, 95, 99, 99.9}

// highestPercentile returns the highest ladder percentile that still has
// at least ten samples beyond it in a sample of n (0 when even the median
// has fewer).
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		// 1e-9 absorbs the rounding of 100-99.9.
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// quantile returns the p-th percentile of sorted values by nearest rank.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*p/100+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 50) }

// sortedMicros converts to microseconds, ascending.
func sortedMicros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	sort.Float64s(out)
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
