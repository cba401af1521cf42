package main

import (
	"math"
	"sort"
	"time"

	"mheta/internal/stats"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a tail figure resting on fewer is one or two
// unlucky requests, not a property of the system.
const minBeyond = 10

// tailLadder is the set of percentiles the benchmark may report as a
// tail, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// tailPercentile returns the highest percentile in tailLadder that has
// at least minBeyond of n samples above it, or ok=false when even the
// lowest does not (then only the median is reportable).
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if n-rank(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// rank is the 1-based nearest rank of the p-th percentile of n samples,
// ceil(p·n/100), in integers (p in tenths) so that 99.9 and 90 do not
// round the wrong way.
func rank(n int, p float64) int {
	tenths := int(math.Round(p * 10))
	r := (tenths*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of xs (which it
// sorts in place). It returns NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[min(rank(len(xs), p), len(xs))-1]
}

// tail reports the p99 of xs when enough samples back it, and otherwise
// the highest percentile that tailPercentile allows (falling back to
// the median). It returns the percentile it used.
func tail(xs []float64) (value, p float64) {
	p, ok := tailPercentile(len(xs))
	if !ok {
		return stats.Median(xs), 50
	}
	if p > 99 {
		p = 99
	}
	return percentile(xs, p), p
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
