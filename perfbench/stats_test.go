package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct{ n, limit, want int }{
		{1, 10000, 5000},
		{19, 10000, 5000}, // no percentile has ten samples beyond it
		{20, 10000, 5000},
		{39, 10000, 5000},
		{40, 10000, 7500},
		{100, 10000, 9000},
		{199, 10000, 9000},
		{200, 10000, 9500},
		{1000, 10000, 9900},
		{10000, 10000, 9990},
		{100000, 10000, 9999},
		{100000, 9500, 9500}, // capped at p95
		{45, 7500, 7500},     // three repro-small runs of 15 studies
		{300, 7500, 7500},    // capped at p75 however many runs
	} {
		got := tailPercentile(c.n, c.limit)
		if got != c.want {
			t.Errorf("tailPercentile(%d, %d) = %d, want %d", c.n, c.limit, got, c.want)
		}
		if beyond := c.n - rank(c.n, got); got != 5000 && beyond < 10 {
			t.Errorf("n=%d: p%d has %d samples beyond it", c.n, got, beyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct {
		q    int
		want float64
	}{{5000, 5}, {9000, 9}, {9500, 10}, {1, 1}, {10000, 10}} {
		if got := percentile(append([]float64(nil), xs...), c.q); got != c.want {
			t.Errorf("percentile(q=%d) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
}

func TestCPUClockBetween(t *testing.T) {
	t0 := time.Unix(100, 0)
	c := &cpuClock{
		at:  []time.Time{t0, t0.Add(time.Second), t0.Add(2 * time.Second)},
		cpu: []float64{10, 11, 13},
	}
	cases := []struct {
		from, to time.Duration
		want     float64
	}{
		{0, time.Second, 1},
		{500 * time.Millisecond, 1500 * time.Millisecond, 1.5},
		{-time.Second, 5 * time.Second, 3}, // clamped to the first and last sample
	}
	for _, tc := range cases {
		if got := c.between(t0.Add(tc.from), t0.Add(tc.to)); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("between(%v, %v) = %v, want %v", tc.from, tc.to, got, tc.want)
		}
	}
}
