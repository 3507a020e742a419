package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"sync"
	"time"

	"mcnet/internal/analytic"
	"mcnet/internal/system"
)

// Open-loop settings of the analyze workloads.
const (
	nominalRate = 2000 // req/s, analyze-open
	mixedRate   = 250  // req/s, serve-mixed
	// maxGenLateMs is the generator lateness (p99) beyond which a phase
	// measured the harness rather than the service.
	maxGenLateMs = 2.0
	// verifyShare is the per-ten-thousand share of requests whose answer is
	// checked against the analytic model.
	verifyShare = 50
)

// knownOrgs resolves the hot-set organizations and their saturation points.
func knownOrgs() ([]knownOrg, error) {
	var out []knownOrg
	for _, spec := range knownOrgSpecs {
		org, err := system.ParseOrganization(spec)
		if err != nil {
			return nil, err
		}
		sat, err := saturation(org)
		if err != nil {
			return nil, err
		}
		out = append(out, knownOrg{spec: spec, sat: sat})
	}
	return out, nil
}

// analyzeLoad drives POST /v1/analyze open loop and checks the answers:
// repeated keys must get byte-identical bodies, and a seeded sample must
// equal the analytic model's mean latency.
type analyzeLoad struct {
	r    *run
	mix  *analyzeMix
	pick *rand.Rand // chooses the verified sample

	mu      sync.Mutex
	hotBody map[string]uint64 // request body → FNV-64 of its first answer
	differ  int
	verify  []verifyItem
}

type verifyItem struct {
	req  analyzeReq
	body []byte
}

func newAnalyzeLoad(r *run, known []knownOrg) *analyzeLoad {
	return &analyzeLoad{
		r:       r,
		mix:     newAnalyzeMix(r.seed, known),
		pick:    rand.New(rand.NewPCG(r.seed, 0x766572696679)),
		hotBody: map[string]uint64{},
	}
}

// warm sends every hot key once over a connection of its own, so the
// measured phase starts with the response cache holding them.
func (l *analyzeLoad) warm(addr string) error {
	c := newConn(addr)
	defer c.close()
	for _, req := range l.mix.hot {
		rep, err := c.do("POST", "/v1/analyze", req.body)
		if err != nil {
			return err
		}
		if rep.status != 200 {
			return fmt.Errorf("warm-up analyze: status %d: %s", rep.status, rep.body)
		}
	}
	return nil
}

// phase offers rate req/s for span and returns what became of each request,
// and the start of the schedule that the requests' due times count from.
func (l *analyzeLoad) phase(rate float64, span time.Duration, conns []*conn) ([]shot, time.Time) {
	due := poissonSchedule(l.mix.rng, rate, span)
	reqs := make([]analyzeReq, len(due))
	check := make([]bool, len(due))
	for i := range reqs {
		reqs[i] = l.mix.next()
		check[i] = l.pick.IntN(10000) < verifyShare
	}
	// A request a stall held past the end of the phase still counts, from
	// its due time; one not sent a second after the phase is abandoned.
	start := time.Now().Add(time.Millisecond)
	loop := &openLoop{start: start, due: due, conns: len(conns), cutoff: start.Add(span + time.Second)}
	loop.send = func(c, i int) (bool, error) {
		id := l.r.tr.begin("serve.analyze", 0)
		rep, err := conns[c].do("POST", "/v1/analyze", reqs[i].body)
		l.r.tr.end(id)
		if err != nil {
			return false, err
		}
		if rep.status != 200 {
			return false, fmt.Errorf("analyze: status %d", rep.status)
		}
		l.record(reqs[i], rep.body, check[i])
		return rep.cache == "hit", nil
	}
	return loop.run(), start
}

// saturate sends the mix closed loop, each connection's next request as soon
// as its previous answer arrives, for span: the service's capacity with one
// request outstanding per connection. It returns the answered requests of
// each whole second, and the requests sent and failed.
func (l *analyzeLoad) saturate(span time.Duration, conns []*conn) (perSecond []float64, sent, failed int) {
	var mu sync.Mutex // guards the mix and the counts
	next := func() (analyzeReq, bool) {
		mu.Lock()
		defer mu.Unlock()
		return l.mix.next(), l.pick.IntN(10000) < verifyShare
	}
	start := time.Now()
	end := start.Add(span)
	perSecond = make([]float64, int(span/time.Second))
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				req, check := next()
				id := l.r.tr.begin("serve.analyze", 0)
				rep, err := c.do("POST", "/v1/analyze", req.body)
				l.r.tr.end(id)
				ok := err == nil && rep.status == 200
				if ok {
					l.record(req, rep.body, check)
				}
				sec := int(time.Since(start) / time.Second)
				mu.Lock()
				sent++
				if !ok {
					failed++
				} else if sec < len(perSecond) {
					perSecond[sec]++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return perSecond, sent, failed
}

func (l *analyzeLoad) record(req analyzeReq, body []byte, check bool) {
	var sum uint64
	if req.kind == kindHot {
		h := fnv.New64a()
		h.Write(body)
		sum = h.Sum64()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if req.kind == kindHot {
		if first, ok := l.hotBody[string(req.body)]; !ok {
			l.hotBody[string(req.body)] = sum
		} else if first != sum {
			l.differ++
		}
	}
	if check {
		l.verify = append(l.verify, verifyItem{req, body})
	}
}

// finish runs the answer checks after the measured phases.
func (l *analyzeLoad) finish() error {
	l.r.check(l.differ == 0, "%d repeated analyze requests got a body different from their first answer", l.differ)
	grids := map[string]*analytic.Grid{}
	for _, v := range l.verify {
		g := grids[v.req.org]
		if g == nil {
			org, err := system.ParseOrganization(v.req.org)
			if err != nil {
				return err
			}
			if g, err = modelGrid(org); err != nil {
				return err
			}
			grids[v.req.org] = g
		}
		want, err := g.MeanLatency(v.req.lambda)
		saturated := errors.Is(err, analytic.ErrSaturated)
		if err != nil && !saturated {
			return err
		}
		var got struct {
			Latency   *float64 `json:"latency"`
			Saturated bool     `json:"saturated"`
		}
		if err := json.Unmarshal(v.body, &got); err != nil {
			return fmt.Errorf("analyze answer: %w", err)
		}
		switch {
		case saturated:
			l.r.check(got.Saturated && got.Latency == nil, "analyze %s: answer %s, model saturated", v.req.body, v.body)
		default:
			l.r.check(got.Latency != nil && *got.Latency == want, "analyze %s: answer %s, model %v", v.req.body, v.body, want)
		}
	}
	l.r.named("analyze_verified", float64(len(l.verify)), "count")
	return nil
}

// phaseResult is one phase's figures.
type phaseResult struct {
	p50, p95        float64 // ms from due time
	genLate         float64 // p99 generator lateness, ms
	n, failed, hits int
	st              loopStats
}

func evaluate(shots []shot, span time.Duration) phaseResult {
	st := summarize(shots, span)
	p := phaseResult{n: st.n, failed: st.failed, hits: len(st.hitMs), st: st}
	p.p50 = percentile(st.latencyMs, 5000)
	p.p95 = percentile(st.latencyMs, 9500)
	p.genLate = percentile(st.lateMs, 9900)
	return p
}

// serviceLatency returns the service latencies of an open-loop phase: the
// median over its one-second windows of each window's p50 and tail
// percentile of the service time, from send to the end of the response.
// The service time leaves out the generator's own lateness and the wait
// for a free connection, which on a small shared host swing by several
// times the service time of a cache hit; and other tenants slow whole
// seconds at a time, which the median over windows passes over. The pooled
// percentiles from the due time are analyze_p50_ms and analyze_p95_ms.
func serviceLatency(p phaseResult, shots []shot, span time.Duration) (p50, tail float64) {
	svc := func(sh shot) time.Duration { return sh.service }
	p50s := windowPercentiles(shots, span, 5000, svc)
	tq := tailPercentile(p.n/max(1, len(p50s)), 9500)
	return median(p50s), median(windowPercentiles(shots, span, tq, svc))
}

// cpuPerRequest returns the gated cost of an open-loop phase: for each
// statWindow of due times, the process CPU seconds spent in it (server,
// client and load generator) per answered request due in it; the median
// over the windows, which passes over a second the host slowed.
func cpuPerRequest(clock *cpuClock, start time.Time, shots []shot) float64 {
	var answered []float64
	for _, sh := range shots {
		i := int(sh.due / statWindow)
		for len(answered) <= i {
			answered = append(answered, 0)
		}
		if sh.ok {
			answered[i]++
		}
	}
	var per []float64
	for i, n := range answered {
		t0 := start.Add(time.Duration(i) * statWindow)
		per = append(per, clock.between(t0, t0.Add(statWindow))/math.Max(1, n))
	}
	return median(per)
}

// reportAnalyze records an analyze phase's named and per-layer metrics. A
// generator later than maxGenLateMs at p99 no longer offered the load the
// seed describes: the phase's figures are then marked invalid (analyze_valid
// 0, and a note on standard error). The run still stands: lateness is the
// host's doing, not a wrong output, and no gated metric reads these
// latencies.
func reportAnalyze(r *run, p phaseResult) {
	r.named("analyze_p50_ms", p.p50, "ms")
	r.named("analyze_p95_ms", p.p95, "ms")
	top := tailPercentile(p.n, 10000)
	r.named(fmt.Sprintf("analyze_p%g_ms", float64(top)/100), percentile(p.st.latencyMs, top), "ms")
	r.named("analyze_requests", float64(p.n), "count")
	r.named("analyze_hit_ratio", float64(p.hits)/math.Max(1, float64(p.n-p.failed)), "ratio")
	r.named("gen.late_ms", p.genLate, "ms")
	onTime := p.genLate <= maxGenLateMs
	if !onTime {
		fmt.Fprintf(os.Stderr, "perfbench: analyze figures invalid: the load generator ran %.3f ms late at p99 (limit %.1f ms)\n", p.genLate, maxGenLateMs)
	}
	valid := 0.0
	if onTime {
		valid = 1
	}
	r.named("analyze_valid", valid, "bool")
	if r.tr != nil {
		r.layer("serve.analyze_hit_ms", median(p.st.hitMs), "ms")
		r.layer("serve.analyze_miss_ms", median(p.st.missMs), "ms")
		r.layer("serve.analyze_hit_ratio", float64(p.hits)/math.Max(1, float64(p.n-p.failed)), "ratio")
		r.layer("gen.late_ms", p.genLate, "ms")
	}
}

// analyzeOpen offers the analyze mix open loop at the nominal rate, then
// measures the service's closed-loop capacity.
func analyzeOpen(r *run) error {
	known, err := knownOrgs()
	if err != nil {
		return err
	}
	var load *analyzeLoad
	svc, setupCPU, setupWall, err := setupMedian(setupReps, func() (*service, error) {
		svc, err := startService(runtime.NumCPU())
		if err != nil {
			return nil, err
		}
		load = newAnalyzeLoad(r, known)
		return svc, load.warm(svc.addr)
	}, (*service).close)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer svc.close()
	conns := make([]*conn, runtime.NumCPU())
	for i := range conns {
		conns[i] = newConn(svc.addr)
		defer conns[i].close()
	}
	r.reportSetup(setupCPU, setupWall)

	// 60% of the window at the nominal rate, the rest closed loop for the
	// capacity.
	nominalSpan := r.window * 3 / 5
	id := r.tr.begin("phase.nominal", 0)
	clock := startCPUClock()
	shots, start := load.phase(nominalRate, nominalSpan, conns)
	clock.close()
	nominal := evaluate(shots, nominalSpan)
	r.tr.end(id)
	r.attempted += nominal.n
	r.failed += nominal.failed
	reportAnalyze(r, nominal)
	p50, tail := serviceLatency(nominal, shots, nominalSpan)
	r.named("analyze_service_p50_ms", p50, "ms")
	r.named("analyze_service_p95_ms", tail, "ms")
	r.endToEnd("cpu_ms_per_op", cpuPerRequest(clock, start, shots)*1e3, "ms")
	// Peak memory is read after the nominal phase, whose requests the seed
	// fixes; the capacity phase runs as many requests as the service can
	// take, and each never-seen organization adds a prepared model.
	r.endToEnd("peak_rss_mb", peakRSSMB(), "MB")

	id = r.tr.begin("phase.capacity", 0)
	c0 := cpuSeconds()
	perSecond, sent, failed := load.saturate(r.window-nominalSpan, conns)
	capacityCPU := cpuSeconds() - c0
	r.tr.end(id)
	r.attempted += sent
	r.failed += failed
	var answered float64
	for _, n := range perSecond {
		answered += n
	}
	capacity := answered / float64(max(1, len(perSecond)))
	r.named("analyze_capacity_rps", capacity, "req/s")
	r.named("analyze_capacity_cpu_ms", capacityCPU/math.Max(1, float64(sent-failed))*1e3, "ms")
	return load.finish()
}
