package wormhole

import (
	"math"
	"sort"
	"testing"

	"mcnet/internal/des"
	"mcnet/internal/rng"
)

func newNet(fts ...float64) (*des.Scheduler, *Network) {
	sched := &des.Scheduler{}
	return sched, New(sched, fts)
}

// injector is a test Handler that injects worms into a network at scheduled
// times.
type injector struct {
	sched *des.Scheduler
	net   *Network
	h     des.HandlerID
	worms []*Worm
}

func newInjector(sched *des.Scheduler, net *Network) *injector {
	in := &injector{sched: sched, net: net}
	in.h = sched.Register(in)
	return in
}

// at schedules net.Inject(w) at time t.
func (in *injector) at(t float64, w *Worm) {
	in.sched.Call(t, in.h, 0, int32(len(in.worms)))
	in.worms = append(in.worms, w)
}

func (in *injector) HandleEvent(_, arg int32) { in.net.Inject(in.worms[arg]) }

func TestSingleWormUniformPipeline(t *testing.T) {
	// Zero-load latency over K channels of equal flit time is (M+K−1)·ft.
	const ft = 0.5
	const M = 4
	sched, net := newNet(ft, ft, ft)
	w := &Worm{ID: 1, Path: []int32{0, 1, 2}, Flits: M}
	var header, tail float64
	w.OnDone = func(w *Worm) { header, tail = w.HeaderAt, w.TailAt }
	net.Inject(w)
	sched.RunAll(0)
	if want := 3 * ft; math.Abs(header-want) > 1e-12 {
		t.Errorf("header arrived at %v, want %v", header, want)
	}
	if want := (M + 3 - 1) * ft; math.Abs(tail-want) > 1e-12 {
		t.Errorf("tail arrived at %v, want %v", tail, want)
	}
	if net.InFlight() != 0 {
		t.Errorf("InFlight = %d after delivery", net.InFlight())
	}
}

func TestSingleWormMixedFlitTimes(t *testing.T) {
	// Path with flit times (1, 2), M=3: the slow second channel dominates;
	// the tail leaves it at acq₁ + M·2 = 1 + 6 = 7.
	sched, net := newNet(1, 2)
	w := &Worm{ID: 1, Path: []int32{0, 1}, Flits: 3}
	var tail float64
	w.OnDone = func(w *Worm) { tail = w.TailAt }
	net.Inject(w)
	sched.RunAll(0)
	if math.Abs(tail-7) > 1e-12 {
		t.Errorf("tail = %v, want 7", tail)
	}
}

func TestSlowUpstreamBoundsTail(t *testing.T) {
	// Flit times (2, 1): the upstream channel feeds flits at rate 1/2, so
	// the tail cannot reach the endpoint before 2·M + 1.
	const M = 5
	sched, net := newNet(2, 1)
	w := &Worm{ID: 1, Path: []int32{0, 1}, Flits: M}
	var tail float64
	w.OnDone = func(w *Worm) { tail = w.TailAt }
	net.Inject(w)
	sched.RunAll(0)
	if want := 2*float64(M) + 1; math.Abs(tail-want) > 1e-12 {
		t.Errorf("tail = %v, want %v", tail, want)
	}
}

func TestTwoWormsSerializeOnSharedChannel(t *testing.T) {
	// Hand-simulated scenario (see test comment in the history): A injected
	// at 0, B at 0.5, both over channels (0,1) with ft=1, M=2.
	sched, net := newNet(1, 1)
	inj := newInjector(sched, net)
	var tails []float64
	mk := func(id uint64) *Worm {
		return &Worm{ID: id, Path: []int32{0, 1}, Flits: 2,
			OnDone: func(w *Worm) { tails = append(tails, w.TailAt) }}
	}
	a, b := mk(1), mk(2)
	inj.at(0, a)
	inj.at(0.5, b)
	sched.RunAll(0)
	if len(tails) != 2 {
		t.Fatalf("delivered %d worms, want 2", len(tails))
	}
	if math.Abs(tails[0]-3) > 1e-12 {
		t.Errorf("A tail = %v, want 3", tails[0])
	}
	if math.Abs(tails[1]-5) > 1e-12 {
		t.Errorf("B tail = %v, want 5 (granted when A releases at 2)", tails[1])
	}
}

func TestFIFOOrderOnInjectionChannel(t *testing.T) {
	sched, net := newNet(1, 1)
	inj := newInjector(sched, net)
	var order []uint64
	for i := uint64(1); i <= 5; i++ {
		w := &Worm{ID: i, Path: []int32{0, 1}, Flits: 3,
			OnDone: func(w *Worm) { order = append(order, w.ID) }}
		inj.at(0, w)
	}
	sched.RunAll(0)
	for i, id := range order {
		if id != uint64(i+1) {
			t.Fatalf("delivery order %v, want FIFO", order)
		}
	}
}

func TestChainedBlockingHoldsUpstreamChannels(t *testing.T) {
	// A holds channel 2 long enough that B (route 1→2) blocks while holding
	// channel 1, which in turn delays C (route 1 only → distinct endpoint is
	// impossible, so give C route (1,3)).
	sched, net := newNet(1, 1, 1, 1)
	inj := newInjector(sched, net)
	var tailB, tailC float64
	a := &Worm{ID: 1, Path: []int32{2}, Flits: 10}
	b := &Worm{ID: 2, Path: []int32{1, 2}, Flits: 2,
		OnDone: func(w *Worm) { tailB = w.TailAt }}
	c := &Worm{ID: 3, Path: []int32{1, 3}, Flits: 2,
		OnDone: func(w *Worm) { tailC = w.TailAt }}
	inj.at(0, a)    // holds ch2 until t=10
	inj.at(0.5, b)  // acquires ch1 at 0.5, blocks on ch2
	inj.at(0.75, c) // waits for ch1 behind B
	sched.RunAll(0)
	// B: granted ch2 at t=10, header at 11, tail at max(.., 10+2)=12.
	if math.Abs(tailB-12) > 1e-12 {
		t.Errorf("B tail = %v, want 12", tailB)
	}
	// B releases ch1 at TC_0 = max(acq+2·1, ...) where acq(ch1)=0.5 → the
	// chain: TC_0 clamped by header arrival at 11 → 11. C granted ch1 at 11,
	// header 13, tail 14? C: acq(ch1)=11, hop → 12, acq(ch3)=12, header 13,
	// TC_0 = 11+2=13, TC_1 = max(13+1, 12+2)=14.
	if math.Abs(tailC-14) > 1e-12 {
		t.Errorf("C tail = %v, want 14", tailC)
	}
}

func TestConservationUnderRandomLoad(t *testing.T) {
	// A random conflicting workload must deliver every worm exactly once,
	// leave no channel busy, and keep utilizations within [0,1].
	const channels = 24
	const worms = 2000
	sched := &des.Scheduler{}
	fts := make([]float64, channels)
	src := rng.New(99)
	for i := range fts {
		fts[i] = 0.25 + src.Float64()
	}
	net := New(sched, fts)
	inj := newInjector(sched, net)
	delivered := 0
	for i := 0; i < worms; i++ {
		// Random path of 1..6 distinct channels, acquired in increasing
		// index order. Ordered acquisition makes the channel-dependency
		// graph acyclic, exactly like the up-then-down ordering of the real
		// routes; unordered random paths would (correctly) deadlock.
		perm := src.Perm(channels)
		plen := 1 + src.Intn(6)
		path := make([]int32, plen)
		for j := 0; j < plen; j++ {
			path[j] = int32(perm[j])
		}
		sort.Slice(path, func(a, b int) bool { return path[a] < path[b] })
		w := &Worm{ID: uint64(i), Path: path, Flits: 1 + src.Intn(8),
			OnDone: func(w *Worm) {
				delivered++
				if w.TailAt < w.HeaderAt || w.HeaderAt < w.InjectedAt {
					t.Errorf("worm %d: inconsistent times %v/%v/%v", w.ID, w.InjectedAt, w.HeaderAt, w.TailAt)
				}
			}}
		inj.at(src.Float64()*500, w)
	}
	sched.RunAll(0)
	if delivered != worms {
		t.Fatalf("delivered %d/%d", delivered, worms)
	}
	if net.InFlight() != 0 || net.Injected() != worms || net.Delivered() != worms {
		t.Errorf("lifecycle counters: inflight=%d injected=%d delivered=%d",
			net.InFlight(), net.Injected(), net.Delivered())
	}
	for c := 0; c < channels; c++ {
		if net.Busy(int32(c)) {
			t.Errorf("channel %d still busy after drain", c)
		}
		if net.QueueLen(int32(c)) != 0 {
			t.Errorf("channel %d still has waiters", c)
		}
		u := net.Utilization(int32(c))
		if u < 0 || u > 1 {
			t.Errorf("channel %d utilization %v outside [0,1]", c, u)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		sched := &des.Scheduler{}
		net := New(sched, []float64{1, 1, 1, 1, 1, 1})
		inj := newInjector(sched, net)
		src := rng.New(7)
		var tails []float64
		for i := 0; i < 500; i++ {
			a, b := int32(src.Intn(6)), int32(src.Intn(6))
			if a == b {
				continue
			}
			w := &Worm{ID: uint64(i), Path: []int32{a, b}, Flits: 4,
				OnDone: func(w *Worm) { tails = append(tails, w.TailAt) }}
			inj.at(src.Float64()*200, w)
		}
		sched.RunAll(0)
		return tails
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different delivery counts %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestUtilizationSingleWorm(t *testing.T) {
	sched, net := newNet(1, 1)
	w := &Worm{ID: 1, Path: []int32{0, 1}, Flits: 4}
	net.Inject(w)
	sched.RunAll(0)
	// ch0 held [0, 4] (M·ft), ch1 held [1, 5]; now = 5.
	if u := net.Utilization(0); math.Abs(u-4.0/5.0) > 1e-12 {
		t.Errorf("ch0 utilization = %v, want 0.8", u)
	}
	if u := net.Utilization(1); math.Abs(u-4.0/5.0) > 1e-12 {
		t.Errorf("ch1 utilization = %v, want 0.8", u)
	}
	if g := net.Grants(0); g != 1 {
		t.Errorf("ch0 grants = %d, want 1", g)
	}
}

func TestShortMessageClampNeverReleasesBeforeHeader(t *testing.T) {
	// M=1 over a long path: releases are clamped to header arrival and the
	// run must still terminate cleanly.
	sched, net := newNet(1, 1, 1, 1, 1, 1, 1, 1)
	w := &Worm{ID: 1, Path: []int32{0, 1, 2, 3, 4, 5, 6, 7}, Flits: 1}
	var tail float64
	w.OnDone = func(w *Worm) { tail = w.TailAt }
	net.Inject(w)
	sched.RunAll(0)
	if tail < 8 {
		t.Errorf("tail = %v, want ≥ header arrival 8", tail)
	}
	for c := int32(0); c < 8; c++ {
		if net.Busy(c) {
			t.Errorf("channel %d left busy", c)
		}
	}
}

func TestMaxQueueLenHighWater(t *testing.T) {
	// Queue three worms behind a long-running holder: the high-water mark
	// must reach 3 and survive the queue draining.
	sched, net := newNet(1, 1)
	inj := newInjector(sched, net)
	a := &Worm{ID: 1, Path: []int32{0}, Flits: 50}
	inj.at(0, a)
	for i := uint64(2); i <= 4; i++ {
		w := &Worm{ID: i, Path: []int32{0, 1}, Flits: 1}
		inj.at(float64(i), w)
	}
	sched.RunAll(0)
	if got := net.MaxQueueLen(0); got != 3 {
		t.Errorf("high-water mark = %d, want 3", got)
	}
	if got := net.QueueLen(0); got != 0 {
		t.Errorf("final queue length = %d, want 0", got)
	}
}

func TestSourceWaitAccessor(t *testing.T) {
	sched, net := newNet(1)
	inj := newInjector(sched, net)
	blocker := &Worm{ID: 1, Path: []int32{0}, Flits: 5}
	waiter := &Worm{ID: 2, Path: []int32{0}, Flits: 1}
	if !math.IsNaN(waiter.SourceWait()) {
		t.Error("SourceWait before injection should be NaN")
	}
	inj.at(0, blocker)
	inj.at(1, waiter)
	sched.RunAll(0)
	// Blocker holds channel 0 for 5 units; waiter injected at 1 → waits 4.
	if got := waiter.SourceWait(); math.Abs(got-4) > 1e-12 {
		t.Errorf("SourceWait = %v, want 4", got)
	}
	if got := blocker.SourceWait(); got != 0 {
		t.Errorf("unblocked worm's SourceWait = %v, want 0", got)
	}
}

func TestWormReset(t *testing.T) {
	sched, net := newNet(1, 1)
	w := &Worm{}
	count := 0
	done := func(*Worm) { count++ }
	w.Reset(1, []int32{0}, 2, done)
	net.Inject(w)
	sched.RunAll(0)
	w.Reset(2, []int32{1}, 2, done)
	net.Inject(w)
	sched.RunAll(0)
	if count != 2 {
		t.Errorf("reused worm delivered %d times, want 2", count)
	}
	if w.ID != 2 {
		t.Errorf("ID after reset = %d, want 2", w.ID)
	}
}

func TestInjectPanics(t *testing.T) {
	_, net := newNet(1)
	for name, w := range map[string]*Worm{
		"empty path": {ID: 1, Flits: 1},
		"zero flits": {ID: 1, Path: []int32{0}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			net.Inject(w)
		}()
	}
}

func TestNewPanicsOnBadFlitTime(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-positive flit time accepted")
		}
	}()
	New(&des.Scheduler{}, []float64{1, 0})
}

func BenchmarkThousandWorms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sched := &des.Scheduler{}
		net := New(sched, []float64{1, 1, 1, 1, 1, 1, 1, 1})
		inj := newInjector(sched, net)
		src := rng.New(3)
		for j := 0; j < 1000; j++ {
			a, c := int32(src.Intn(8)), int32(src.Intn(8))
			if a == c {
				continue
			}
			w := &Worm{ID: uint64(j), Path: []int32{a, c}, Flits: 32}
			inj.at(src.Float64()*1000, w)
		}
		sched.RunAll(0)
	}
}
