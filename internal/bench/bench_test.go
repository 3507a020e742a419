package bench

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"mcnet/internal/des"
	"mcnet/internal/mcsim"
	"mcnet/internal/rng"
	"mcnet/internal/serve"
	"mcnet/internal/sweep"
	"mcnet/internal/system"
	"mcnet/internal/units"
	"mcnet/internal/workload"
	"mcnet/internal/wormhole"
)

// callHandler is a self-rescheduling handler: every event it runs schedules
// its successor an Exp(rate) delay later.
type callHandler struct {
	s    *des.Scheduler
	h    des.HandlerID
	src  *rng.Source
	rate float64
}

func (c *callHandler) HandleEvent(op, arg int32) {
	c.s.Call(c.s.Now()+c.src.Exp(c.rate), c.h, op, arg)
}

// BenchmarkDESCall measures raw future-event-list churn: a pool of
// self-rescheduling timers on one handler, the dominant access pattern of
// the simulator (every executed event schedules roughly one successor).
func BenchmarkDESCall(b *testing.B) {
	const timers = 256
	b.ReportAllocs()
	var s des.Scheduler
	c := &callHandler{s: &s, src: rng.New(1), rate: 1}
	c.h = s.Register(c)
	for i := int32(0); i < timers; i++ {
		s.Call(c.src.Float64(), c.h, 0, i)
	}
	b.ResetTimer()
	s.RunAll(uint64(b.N))
}

// Heap shape of an Org1 run: one pending arrival timer per node, far in the
// future, beside a few dozen in-flight wormhole events near the present.
// With these rates about 21 of every 22 executed events are near-future
// ones, as in the simulator.
const (
	laneTimers      = 1120
	laneTimerMean   = 500.0
	laneChurners    = 48
	laneChurnerMean = 1.0
)

// desLanes loads s with the Org1 heap shape: the timers on one handler and
// the near-future churners on a second.
func desLanes(s *des.Scheduler) {
	src := rng.New(1)
	timers := &callHandler{s: s, src: src, rate: 1 / laneTimerMean}
	churn := &callHandler{s: s, src: src, rate: 1 / laneChurnerMean}
	timers.h = s.Register(timers)
	churn.h = s.Register(churn)
	for i := int32(0); i < laneTimers; i++ {
		s.Call(src.Float64()*laneTimerMean, timers.h, 0, i)
	}
	for i := int32(0); i < laneChurners; i++ {
		s.Call(src.Float64()*laneChurnerMean, churn.h, 0, i)
	}
}

// BenchmarkDESLanes measures event churn under the production heap shape
// (see desLanes): ns/op is the cost of one executed event when most pending
// events are far-future timers but most executed events are not.
func BenchmarkDESLanes(b *testing.B) {
	b.ReportAllocs()
	var s des.Scheduler
	desLanes(&s)
	b.ResetTimer()
	s.RunAll(uint64(b.N))
}

// BenchmarkWormholeLine streams worms down an 8-hop line with enough
// injection pressure to keep every channel contended, exercising the
// grant/advance/release cycle and the FIFO arbiter.
func BenchmarkWormholeLine(b *testing.B) {
	const hops = 8
	b.ReportAllocs()
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
	free := make([]*wormhole.Worm, 0, 4)
	var id uint64
	var inject func(w *wormhole.Worm)
	inject = func(w *wormhole.Worm) {
		id++
		w.Reset(id, path, 16, inject)
		net.Inject(w)
	}
	for i := 0; i < cap(free); i++ {
		inject(&wormhole.Worm{})
	}
	b.ResetTimer()
	s.RunAll(uint64(b.N))
}

// benchConfig is one mid-load point of the paper's first organization
// (N=1120 nodes), the simulator's production workload shape.
func benchConfig(measure int) mcsim.Config {
	return mcsim.Config{
		Org:     system.Table1Org1(),
		Par:     units.Default(),
		LambdaG: 0.00032298, // ≈60% of the analytic saturation load
		Warmup:  measure / 10,
		Measure: measure,
		Drain:   measure / 10,
		Seed:    7,
	}
}

// BenchmarkMcsimOrg1 runs the whole-system simulator end to end; ns/op is
// dominated by the per-message hot path (routing, injection, channel events,
// measurement).
func BenchmarkMcsimOrg1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := mcsim.Run(benchConfig(4000)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTopoConfig is benchConfig with a topology axis applied over the
// organization (see system.ApplyTopologyAxis).
func benchTopoConfig(measure int, axis string) mcsim.Config {
	cfg := benchConfig(measure)
	if err := system.ApplyTopologyAxis(&cfg.Org, axis); err != nil {
		panic(err)
	}
	return cfg
}

// BenchmarkMcsimJellyfish runs the same organization with every cluster's
// ICN1 replaced by the equal-budget random-regular topology: the plugin's
// frozen-path-arena AppendRoute instead of the tree's digit walk, on the
// same per-message hot path.
func BenchmarkMcsimJellyfish(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := mcsim.Run(benchTopoConfig(4000, "jellyfish")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMcsimBursty runs the same organization under a bursty MMPP
// arrival process with a bimodal message-length mix — the workload
// subsystem's hot path (per-node modulation state, per-message length draws,
// variable-M worms) on top of the simulator's.
func BenchmarkMcsimBursty(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(4000)
		cfg.Arrival = workload.MMPP{Peak: 16, Burst: 32}
		cfg.Sizes = workload.Bimodal{Short: 8, Long: 128, PLong: 0.2}
		if _, err := mcsim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeAnalyze measures the serving layer's cached fast path:
// requests/sec through the full handler stack (mux routing, instrumentation,
// body decode, scenario canonicalization, response-cache lookup) for a
// repeated POST /v1/analyze. The first request renders and caches the
// response; every measured iteration must be answered from the cache. The
// capacity-planning service is sized against a ≥10k req/s target here,
// i.e. ≤100µs/op.
func BenchmarkServeAnalyze(b *testing.B) {
	srv, err := serve.New(serve.Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	body := []byte(`{"org":"org1","lambda":0.0003}`)
	post := func() int {
		req := httptest.NewRequest("POST", "/v1/analyze", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	if code := post(); code != 200 {
		b.Fatalf("warmup request: status %d", code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := post(); code != 200 {
			b.Fatalf("status %d", code)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkServeAnalyzeMiss measures the /v1/analyze response-cache miss on
// a warm prepared model: every iteration sends a load not seen before on
// org1, so the handler evaluates the model once (Eq. 36) and renders a new
// document, while the model itself, its saturation point and the canonical
// org spec come from the server's caches. The loads stay below org1's
// saturation point.
func BenchmarkServeAnalyzeMiss(b *testing.B) {
	srv, err := serve.New(serve.Config{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	post := func(lambda float64) (int, string) {
		body := fmt.Sprintf(`{"org":"org1","lambda":%v}`, lambda)
		req := httptest.NewRequest("POST", "/v1/analyze", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Header().Get("X-Cache")
	}
	if code, _ := post(0.0003); code != 200 {
		b.Fatalf("warmup request: status %d", code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Distinct loads in (1e-4, 2e-4); the warmup load is outside it.
		lambda := 1e-4 * (1 + float64(i+1)/float64(b.N+1))
		if code, cache := post(lambda); code != 200 || cache != "miss" {
			b.Fatalf("λ=%v: status %d, X-Cache %q", lambda, code, cache)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkSweepFigure runs the builtin Figure 3 (M=32) grid — 20 jobs over
// two message geometries and ten loads — at workers=1 and reduced measurement
// scale. This is the end-to-end number the ≥2× speedup target of the hot-path
// overhaul is judged against.
func BenchmarkSweepFigure(b *testing.B) {
	spec, ok := sweep.Builtin("fig3-m32")
	if !ok {
		b.Fatal("builtin fig3-m32 missing")
	}
	spec.Warmup, spec.Measure, spec.Drain = 200, 2000, 200
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := &sweep.Engine{Workers: 1}
		if _, err := eng.Run(spec); err != nil {
			b.Fatal(err)
		}
	}
}
