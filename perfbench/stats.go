package main

import (
	"math"
	"sort"
)

// tailLadder lists, in per-ten-thousand, the percentiles a timing's tail may
// be read at.
var tailLadder = []int{5000, 7500, 9000, 9500, 9900, 9990, 9999}

// rank is the nearest-rank position (1-based) of percentile q (in
// per-ten-thousand) among n samples.
func rank(n, q int) int {
	r := (q*n + 9999) / 10000
	if r < 1 {
		r = 1
	}
	return r
}

// tailPercentile returns the highest percentile of tailLadder (in
// per-ten-thousand) that still has at least ten of n samples beyond it, capped
// at limit. With fewer than twenty samples no percentile qualifies and the
// median is returned: such a run resolves no tail.
func tailPercentile(n, limit int) int {
	best := tailLadder[0]
	for _, q := range tailLadder {
		if q <= limit && n-rank(n, q) >= 10 {
			best = q
		}
	}
	return best
}

// percentile returns the nearest-rank percentile q (per-ten-thousand) of xs,
// which it sorts in place. It returns 0 for no samples.
func percentile(xs []float64, q int) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), q)-1]
}

// median is percentile 50 of a copy of xs.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 5000)
}

// mean is the arithmetic mean of xs, 0 for none.
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / math.Max(1, float64(len(xs)))
}
