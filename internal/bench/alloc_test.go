package bench

import (
	"testing"

	"mcnet/internal/des"
	"mcnet/internal/mcsim"
	"mcnet/internal/rng"
	"mcnet/internal/workload"
	"mcnet/internal/wormhole"
)

// Allocation gates: the hot paths below were made (near-)allocation-free by
// the pooling work — the DES Call/Register path and the wormhole
// grant/advance/release cycle run steady-state with zero allocations, and a
// whole mcsim run costs a fixed setup-time budget regardless of message
// count (worm paths, acquisition buffers, arrival processes and messages all
// come from slab pools). These tests pin that property with
// testing.AllocsPerRun so a regression fails `go test ./...` rather than
// waiting for someone to read benchmark output. Budgets are hard ceilings
// with headroom over the measured values (see README "Performance"); they
// are not targets to grow into.
func gate(t *testing.T, name string, budget float64, f func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("race detector instruments allocations; gate runs in the non-race CI lane")
	}
	got := testing.AllocsPerRun(3, f)
	if got > budget {
		t.Errorf("%s: %.1f allocs/run, budget %.0f", name, got, budget)
	}
}

// TestAllocsDESCall pins the scheduler's Register/Call fast path at zero
// steady-state allocations: self-rescheduling handlers churn the event heap
// without ever touching it structurally once warmed.
func TestAllocsDESCall(t *testing.T) {
	var s des.Scheduler
	c := &callHandler{s: &s, src: rng.New(1), rate: 1}
	c.h = s.Register(c)
	for i := int32(0); i < 64; i++ {
		s.Call(c.src.Float64(), c.h, 0, i)
	}
	s.RunAll(10000) // warm the heap to steady-state capacity
	gate(t, "des-call", 0, func() { s.RunAll(50000) })
}

// TestAllocsDESLanes pins the same zero-allocation property under the
// production heap shape: two handlers, each with its own event lane, one
// holding a thousand far-future timers.
func TestAllocsDESLanes(t *testing.T) {
	var s des.Scheduler
	desLanes(&s)
	s.RunAll(10000)
	gate(t, "des-lanes", 0, func() { s.RunAll(50000) })
}

// TestAllocsWormholeLine pins the wormhole grant/advance/release cycle —
// including the channel arbiters' intrusive wait queues — at zero
// steady-state allocations under sustained contention.
func TestAllocsWormholeLine(t *testing.T) {
	const hops = 8
	var s des.Scheduler
	flits := make([]float64, hops)
	for i := range flits {
		flits[i] = 1
	}
	net := wormhole.New(&s, flits)
	path := make([]int32, hops)
	for i := range path {
		path[i] = int32(i)
	}
	var id uint64
	var inject func(w *wormhole.Worm)
	inject = func(w *wormhole.Worm) {
		id++
		w.Reset(id, path, 16, inject)
		net.Inject(w)
	}
	for i := 0; i < 4; i++ {
		inject(&wormhole.Worm{})
	}
	s.RunAll(10000)
	gate(t, "wormhole-line", 0, func() { s.RunAll(50000) })
}

// TestAllocsMcsimOrg1 bounds a full Org1 simulation run (Poisson arrivals,
// fixed M). Everything here is setup: system expansion, channel tables, the
// first message-pool slab. The per-message path contributes nothing, so the
// budget does not scale with Measure.
func TestAllocsMcsimOrg1(t *testing.T) {
	cfg := benchConfig(4000)
	gate(t, "mcsim-org1", 150, func() {
		if _, err := mcsim.Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocsMcsimJellyfish bounds a run whose ICN1s are the random-regular
// plugin: routes are copied out of the topology's frozen path arena, so the
// per-message path stays allocation-free and the whole run fits the same
// fixed setup budget as the fat-tree configuration.
func TestAllocsMcsimJellyfish(t *testing.T) {
	cfg := benchTopoConfig(4000, "jellyfish")
	gate(t, "mcsim-jellyfish", 150, func() {
		if _, err := mcsim.Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocsMcsimTelemetry pins the telemetry collector's contract: all of
// its memory (tier tables, histograms, the series ring) is carved out at
// setup, so the per-event sampling and per-delivery decomposition paths add
// zero steady-state allocations. Doubling Measure must not move the
// allocation count (beyond runtime noise); the absolute budget is the
// plain-run budget plus a fixed collector-setup allowance.
func TestAllocsMcsimTelemetry(t *testing.T) {
	run := func(measure int) float64 {
		cfg := benchConfig(measure)
		cfg.Telemetry = &mcsim.TelemetryConfig{}
		return testing.AllocsPerRun(3, func() {
			if _, err := mcsim.Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	if raceEnabled {
		t.Skip("race detector instruments allocations; gate runs in the non-race CI lane")
	}
	small, large := run(4000), run(8000)
	// Equality up to scheduling noise: a per-message or per-sample leak
	// would show up as thousands of allocs at double the Measure, not ±2.
	if large > small+2 {
		t.Errorf("telemetry steady state allocates: %.1f allocs at measure=4000 vs %.1f at 8000", small, large)
	}
	if budget := 170.0; small > budget {
		t.Errorf("telemetry-on run: %.1f allocs, budget %.0f", small, budget)
	}
}

// TestAllocsMcsimBursty bounds the bursty fast path: MMPP arrivals and a
// bimodal length mix on the same organization. Variable-M worms draw their
// path and acquisition buffers from the pooled slabs, and the MMPP per-node
// state comes from one arena, so the budget stays within 2× of the fixed-M
// run — the tentpole target — instead of the ~8× it was when every worm
// allocated its own buffers.
func TestAllocsMcsimBursty(t *testing.T) {
	cfg := benchConfig(4000)
	cfg.Arrival = workload.MMPP{Peak: 16, Burst: 32}
	cfg.Sizes = workload.Bimodal{Short: 8, Long: 128, PLong: 0.2}
	gate(t, "mcsim-bursty", 300, func() {
		if _, err := mcsim.Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
}
