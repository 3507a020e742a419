package main

import (
	"math/rand/v2"
	"slices"
	"testing"
	"time"
)

func TestScheduleIsDeterministicPerSeed(t *testing.T) {
	sched := func(seed uint64) []time.Duration {
		return poissonSchedule(rand.New(rand.NewPCG(seed, 1)), 2000, 5*time.Second)
	}
	a, b, c := sched(7), sched(7), sched(8)
	if !slices.Equal(a, b) {
		t.Fatal("two schedules from seed 7 differ")
	}
	if slices.Equal(a, c) {
		t.Fatal("seeds 7 and 8 gave the same schedule")
	}
	// 10000 expected arrivals; a Poisson count stays within 4 sigma (400).
	if n := len(a); n < 9600 || n > 10400 {
		t.Fatalf("%d arrivals in 5 s at 2000/s", n)
	}
	if !slices.IsSorted(a) || a[0] < 0 || a[len(a)-1] >= 5*time.Second {
		t.Fatal("schedule not ordered within [0, span)")
	}
}

func TestMixIsDeterministicPerSeed(t *testing.T) {
	known := []knownOrg{{"org1", 5e-4}, {"org2", 1e-3}, {"a", 6e-4}, {"b", 5e-4}}
	a, b := newAnalyzeMix(3, known), newAnalyzeMix(3, known)
	for i := 0; i < 5000; i++ {
		x, y := a.next(), b.next()
		if string(x.body) != string(y.body) {
			t.Fatalf("request %d differs: %s vs %s", i, x.body, y.body)
		}
	}
}

func TestSummarizeChargesFailuresThePenalty(t *testing.T) {
	shots := []shot{
		{latency: time.Millisecond, service: time.Millisecond, sent: true, ok: true, hit: true},
		{latency: 2 * time.Millisecond, service: time.Millisecond, sent: true, ok: true},
		{sent: true},
		{},
	}
	st := summarize(shots, time.Second)
	if st.failed != 2 || len(st.hitMs) != 1 || len(st.missMs) != 1 || len(st.lateMs) != 3 {
		t.Fatalf("summary %+v", st)
	}
	if got := percentile(st.latencyMs, 10000); got != 1000 {
		t.Fatalf("worst latency %v ms, want the 1000 ms penalty", got)
	}
}

func TestWindowPercentilesReadTheChosenTime(t *testing.T) {
	shots := []shot{
		{due: 0, latency: 5 * time.Millisecond, service: time.Millisecond, sent: true, ok: true},
		{due: 500 * time.Millisecond, latency: 6 * time.Millisecond, service: 2 * time.Millisecond, sent: true, ok: true},
		{due: 1200 * time.Millisecond, latency: 7 * time.Millisecond, service: 3 * time.Millisecond, sent: true, ok: true},
		{due: 1500 * time.Millisecond, sent: true}, // failed: counts as the penalty
	}
	svc := func(sh shot) time.Duration { return sh.service }
	got := windowPercentiles(shots, time.Second, 10000, svc)
	if len(got) != 2 || got[0] != 2 || got[1] != 1000 {
		t.Fatalf("per-window maxima of the service time = %v, want [2 1000]", got)
	}
	lat := func(sh shot) time.Duration { return sh.latency }
	if got := windowPercentiles(shots[:3], time.Second, 1, lat); len(got) != 2 || got[0] != 5 || got[1] != 7 {
		t.Fatalf("per-window minima of the latency = %v, want [5 7]", got)
	}
}
