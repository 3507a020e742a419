package sweep

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"mcnet/internal/analytic"
	"mcnet/internal/mcsim"
	"mcnet/internal/system"
	"mcnet/internal/workload"
)

// Result is one emitted row of a sweep: the job, the attached analytic
// prediction, and the simulation outcome.
type Result struct {
	Job Job `json:"job"`
	// Analysis is the model's Eq. 36 latency at the job's load (NaN when the
	// model is saturated there or the spec's model preset is "none").
	Analysis          Float `json:"analysis"`
	AnalysisSaturated bool  `json:"analysis_saturated"`
	Outcome
	// Cached reports that the outcome came from the cache rather than a
	// fresh simulation. It is deliberately excluded from serialized output
	// so a resumed sweep reproduces the original files byte for byte.
	Cached bool `json:"-"`
}

// Progress is a live engine report, delivered once per emitted result in
// job order.
type Progress struct {
	Done      int // results emitted so far (including this one)
	Total     int
	CacheHits int
	Result    Result
}

// Summary totals an engine run.
type Summary struct {
	Total     int // jobs in the expanded grid
	Executed  int // jobs that ran the simulator
	CacheHits int // jobs satisfied from the cache
}

// Engine executes a sweep's jobs on a bounded worker pool and streams
// results, in job order, to its sinks.
type Engine struct {
	// Workers bounds the number of concurrent simulations
	// (0 = runtime.GOMAXPROCS).
	Workers int
	// Cache, if non-nil, is consulted before and written after every job.
	Cache Cache
	// Sinks receive every result in job order.
	Sinks []Sink
	// Progress, if non-nil, is called after each result is emitted.
	Progress func(Progress)
	// Exec, if non-nil, replaces Execute for jobs not satisfied by Cache.
	// The serving layer uses it to single-flight identical jobs across
	// concurrent sweeps and queue workers sharing one outcome cache.
	Exec func(Job) (Outcome, error)
	// Observer, if non-nil, receives per-job lifecycle telemetry from the
	// workers. Unlike Progress (which reports in job order as results are
	// emitted), the Observer sees events as they happen, from whichever
	// worker they happen on — it must be safe for concurrent use.
	Observer Observer
	// TelemetrySink, if non-nil, receives each executed job's full
	// simulator telemetry report when the spec enables telemetry (the
	// outcome itself carries only the summary digest). Like the Observer it
	// is called from whichever worker ran the job — it must be safe for
	// concurrent use. Cache hits produce no report.
	TelemetrySink func(Job, *mcsim.TelemetryReport)
}

// Observer receives engine job lifecycle events. JobStarted fires when a
// worker picks a job up (before the cache lookup); JobFinished fires when
// the job resolves, with whether it was satisfied from the cache and its
// wall time in seconds. Both may be called concurrently from many workers.
type Observer interface {
	JobStarted(j Job)
	JobFinished(j Job, cached bool, seconds float64)
}

// testHookJobStart, when non-nil, is invoked by a worker as it begins
// executing (not cache-hitting) a job. Tests use it to observe concurrency.
var testHookJobStart func(Job)

func (e *Engine) workers(jobs int) int {
	w := e.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run expands the spec and executes the grid. Results stream to the sinks in
// job order regardless of worker scheduling, so output is deterministic at
// any worker count.
func (e *Engine) Run(spec Spec) (Summary, error) {
	return e.RunContext(context.Background(), spec)
}

// RunContext is Run with cancellation: when ctx is done, no further jobs are
// started, in-flight simulations finish (the simulator itself has no
// preemption points) and their outcomes still land in the cache, and the run
// returns ctx's error. The serving layer uses it for request timeouts and
// graceful shutdown.
func (e *Engine) RunContext(ctx context.Context, spec Spec) (Summary, error) {
	spec = spec.Normalized()
	jobs, err := Expand(spec)
	if err != nil {
		return Summary{}, err
	}
	return e.RunJobsContext(ctx, spec, jobs)
}

// RunJobs executes an already expanded grid (as printed by a dry run).
func (e *Engine) RunJobs(spec Spec, jobs []Job) (Summary, error) {
	return e.RunJobsContext(context.Background(), spec, jobs)
}

// RunJobsContext is RunJobs with the cancellation semantics of RunContext.
func (e *Engine) RunJobsContext(ctx context.Context, spec Spec, jobs []Job) (Summary, error) {
	spec = spec.Normalized()
	sum := Summary{Total: len(jobs)}
	if len(jobs) == 0 {
		return sum, nil
	}
	analyses, err := analysisTable(spec, jobs)
	if err != nil {
		return sum, err
	}

	type indexed struct {
		pos int
		res Result
		err error
	}
	workers := e.workers(len(jobs))
	in := make(chan int)
	out := make(chan indexed, workers)
	abort := make(chan struct{})
	var abortOnce sync.Once
	stop := func() { abortOnce.Do(func() { close(abort) }) }

	// Tie the abort channel to the caller's context so cancellation stops
	// the feeder and the workers promptly.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			stop()
		case <-watchDone:
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pos := range in {
				res, err := e.runJob(ctx, jobs[pos], spec.Telemetry)
				select {
				case out <- indexed{pos, res, err}:
				case <-abort:
					return
				}
			}
		}()
	}
	go func() {
		defer close(in)
		for pos := range jobs {
			select {
			case in <- pos:
			case <-abort:
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(out)
	}()

	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
		stop()
	}
	pending := make(map[int]Result, workers)
	next := 0
	for r := range out {
		if r.err != nil {
			fail(r.err)
			continue
		}
		pending[r.pos] = r.res
		for {
			res, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if firstErr != nil {
				continue
			}
			a := analyses[analysisKey(res.Job)]
			res.Analysis = a.value
			res.AnalysisSaturated = a.saturated
			if res.Cached {
				sum.CacheHits++
			} else {
				sum.Executed++
			}
			for _, s := range e.Sinks {
				if err := s.Write(res); err != nil {
					fail(fmt.Errorf("sweep: sink: %w", err))
					break
				}
			}
			if e.Progress != nil && firstErr == nil {
				e.Progress(Progress{Done: next, Total: len(jobs), CacheHits: sum.CacheHits, Result: res})
			}
		}
	}
	stop()
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	return sum, firstErr
}

// runJob satisfies one job from the cache or by running the simulator (or
// the engine's Exec hook).
func (e *Engine) runJob(ctx context.Context, j Job, telemetry bool) (Result, error) {
	var start time.Time
	if e.Observer != nil {
		start = time.Now()
		e.Observer.JobStarted(j)
	}
	res, err := e.runJobInner(ctx, j, telemetry)
	if e.Observer != nil && err == nil {
		e.Observer.JobFinished(j, res.Cached, time.Since(start).Seconds())
	}
	return res, err
}

func (e *Engine) runJobInner(ctx context.Context, j Job, telemetry bool) (Result, error) {
	key := j.Key()
	if e.Cache != nil {
		if o, ok := e.Cache.Get(key); ok && (!telemetry || o.Telemetry != nil) {
			// A telemetry-requesting run treats a summary-less cached outcome
			// as a miss: the measurements would match, but the contention
			// digest the caller asked for does not exist and cannot be
			// reconstructed. Re-executing stores the enriched outcome, whose
			// measurements are bit-identical (telemetry is observation-only).
			return Result{Job: j, Outcome: o, Cached: true}, nil
		}
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if testHookJobStart != nil {
		testHookJobStart(j)
	}
	var o Outcome
	var err error
	if e.Exec != nil {
		o, err = e.Exec(j)
	} else {
		var opt ExecOptions
		if telemetry {
			opt.Telemetry = &mcsim.TelemetryConfig{}
		}
		var rep *mcsim.TelemetryReport
		o, rep, err = Execute(j, opt)
		if err == nil && rep != nil && e.TelemetrySink != nil {
			e.TelemetrySink(j, rep)
		}
	}
	if err != nil {
		return Result{}, err
	}
	if e.Cache != nil {
		if err := e.Cache.Put(key, o); err != nil {
			return Result{}, fmt.Errorf("sweep: cache: %w", err)
		}
	}
	return Result{Job: j, Outcome: o}, nil
}

// ExecOptions parameterizes Execute. The zero value runs the simulation
// with no observation hooks.
type ExecOptions struct {
	// OnProgress, if non-nil, samples the run's liveness about every
	// ProgressEvery executed events (0 = the simulator's default stride).
	ProgressEvery uint64
	OnProgress    func(events uint64, simTime float64)
	// Telemetry, if non-nil, enables the simulator's contention instrument:
	// the returned outcome carries the summary digest and Execute returns
	// the full report. Observation-only — the measurements are
	// bit-identical with or without it.
	Telemetry *mcsim.TelemetryConfig
	// OnTelemetry, if non-nil (and Telemetry is set), receives the live
	// collector before the run starts, so a serving layer can snapshot a
	// simulation in flight.
	OnTelemetry func(*mcsim.Telemetry)
}

// Execute runs one job's simulation to completion with optional
// observation hooks. The hooks only observe: every ExecOptions yields the
// measurements of ExecOptions{}. The returned report is nil unless
// opt.Telemetry is set.
func Execute(j Job, opt ExecOptions) (Outcome, *mcsim.TelemetryReport, error) {
	org, err := j.TopoOrg()
	if err != nil {
		return Outcome{}, nil, err
	}
	pattern, err := ParsePattern(j.Pattern)
	if err != nil {
		return Outcome{}, nil, err
	}
	mode, err := ParseRouting(j.Routing)
	if err != nil {
		return Outcome{}, nil, err
	}
	arrival, err := workload.ParseArrival(j.Arrival)
	if err != nil {
		return Outcome{}, nil, err
	}
	sizes, err := workload.ParseSize(j.SizeDist)
	if err != nil {
		return Outcome{}, nil, err
	}
	par, err := j.Params()
	if err != nil {
		return Outcome{}, nil, err
	}
	sim, err := mcsim.New(mcsim.Config{
		Org: org, Par: par, LambdaG: j.Lambda,
		Warmup: j.Warmup, Measure: j.Measure, Drain: j.Drain,
		Seed: j.SimSeed, Pattern: pattern, RoutingMode: mode,
		Arrival: arrival, Sizes: sizes,
		OnProgress: opt.OnProgress, ProgressEvery: opt.ProgressEvery,
		Telemetry: opt.Telemetry,
	})
	if err != nil {
		return Outcome{}, nil, err
	}
	if opt.OnTelemetry != nil && sim.Telemetry() != nil {
		opt.OnTelemetry(sim.Telemetry())
	}
	res, err := sim.Run()
	if err != nil && !res.Truncated {
		return Outcome{}, nil, err
	}
	// Truncated runs (extreme saturation) still carry partial measurements;
	// report them rather than failing the sweep.
	o := Outcome{
		SimLatency:    Float(res.Latency.Mean),
		SimSourceWait: Float(res.SourceWait.Mean),
		SimPOut:       Float(res.ObservedPOut),
		Delivered:     res.DeliveredMeasured,
		Truncated:     res.Truncated,
	}
	if res.DeliveredMeasured == 0 {
		o.SimLatency = Float(math.NaN())
	}
	var rep *mcsim.TelemetryReport
	if t := sim.Telemetry(); t != nil {
		r := t.Snapshot()
		rep = &r
		o.Telemetry = r.Summary()
	}
	return o, rep, nil
}

// analysisPoint is one precomputed analytic latency.
type analysisPoint struct {
	value     Float
	saturated bool
}

// analysisKey indexes the analysis table: the model latency depends only on
// the organization, the message geometry, the link-technology point, the
// topology point and the load.
func analysisKey(j Job) [5]int {
	return [5]int{j.OrgIndex, j.MsgIndex, j.LinksIndex, j.TopoIndex, j.LoadIndex}
}

// analysisTable precomputes the analytic latency for every distinct
// (org, message, links, topology, load) combination of the grid,
// sequentially and before any simulation starts, so emission never blocks
// on model evaluation.
func analysisTable(spec Spec, jobs []Job) (map[[5]int]analysisPoint, error) {
	table := make(map[[5]int]analysisPoint)
	if spec.Model == "none" {
		nan := analysisPoint{value: Float(math.NaN())}
		for _, j := range jobs {
			table[analysisKey(j)] = nan
		}
		return table, nil
	}
	opts, err := ModelOptions(spec.Model)
	if err != nil {
		return nil, err
	}
	// One batched evaluator per distinct model: the grid's load axis then
	// reuses the model's memoized shared terms across its λ points instead
	// of re-running every stage recursion per point.
	type mkey struct{ org, msg, links, topo int }
	grids := make(map[mkey]*analytic.Grid)
	for _, j := range jobs {
		k := analysisKey(j)
		if _, ok := table[k]; ok {
			continue
		}
		mk := mkey{j.OrgIndex, j.MsgIndex, j.LinksIndex, j.TopoIndex}
		g, ok := grids[mk]
		if !ok {
			org, err := j.TopoOrg()
			if err != nil {
				return nil, err
			}
			sys, err := system.New(org)
			if err != nil {
				return nil, err
			}
			par, err := j.Params()
			if err != nil {
				return nil, err
			}
			m, err := analytic.New(sys, par, opts)
			if err != nil {
				return nil, err
			}
			g = analytic.NewGrid(m)
			grids[mk] = g
		}
		var p analysisPoint
		if v, err := g.MeanLatency(j.Lambda); err != nil {
			p = analysisPoint{value: Float(math.NaN()), saturated: true}
		} else {
			p = analysisPoint{value: Float(v)}
		}
		table[k] = p
	}
	return table, nil
}
