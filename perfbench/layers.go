package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"mcnet/internal/analytic"
	"mcnet/internal/mcsim"
	"mcnet/internal/routing"
	"mcnet/internal/sweep"
	"mcnet/internal/system"
	"mcnet/internal/topo"
	"mcnet/internal/units"
)

// probeSeed fixes the simulator seed of the layer probes, so that
// mcsim.events_per_msg is a count that repeats exactly on every run.
const probeSeed = 20061

// timeIt returns the median wall time of n calls of fn, in seconds, each
// recorded as a span named name under parent.
func timeIt(t *tracer, parent int32, name string, n int, fn func() error) (float64, error) {
	var secs []float64
	for i := 0; i < n; i++ {
		id := t.begin(name, parent)
		start := time.Now()
		err := fn()
		secs = append(secs, time.Since(start).Seconds())
		t.end(id)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return median(secs), nil
}

// probeLayers times the public entry points of the layers under the
// service and the pipeline directly, so each has a number of its own:
// mcsim on a quick-scale and a paper-scale Org2 job, system.New, AppendRoute
// on each topology plugin, and the analytic model.
func probeLayers(r *run) error {
	root := r.tr.begin("layers", 0)
	defer r.tr.end(root)
	if err := probeMcsim(r, root); err != nil {
		return err
	}
	if err := probeSystemTopo(r, root); err != nil {
		return err
	}
	return probeAnalytic(r, root)
}

func org2Config(sat float64, warmup, measure, drain int) mcsim.Config {
	return mcsim.Config{
		Org: system.Table1Org2(), Par: units.Default(), LambdaG: 0.5 * sat,
		Warmup: warmup, Measure: measure, Drain: drain, Seed: probeSeed,
	}
}

func probeMcsim(r *run, parent int32) error {
	sat, err := saturation(system.Table1Org2())
	if err != nil {
		return err
	}
	// One simulation: New, then Run, each its own span.
	simulate := func(cfg mcsim.Config) (setup, run time.Duration, res mcsim.Result, err error) {
		id := r.tr.begin("mcsim.New", parent)
		start := time.Now()
		s, err := mcsim.New(cfg)
		setup = time.Since(start)
		r.tr.end(id)
		if err != nil {
			return setup, 0, res, fmt.Errorf("mcsim.New: %w", err)
		}
		id = r.tr.begin("mcsim.Run", parent)
		start = time.Now()
		res, err = s.Run()
		run = time.Since(start)
		r.tr.end(id)
		if err != nil {
			return setup, run, res, fmt.Errorf("mcsim.Run: %w", err)
		}
		return setup, run, res, nil
	}

	var setups, quickRuns []float64
	var quickEvents []uint64
	for i := 0; i < 5; i++ {
		setup, run, res, err := simulate(org2Config(sat, 1000, 10000, 1000))
		if err != nil {
			return err
		}
		setups = append(setups, setup.Seconds())
		quickRuns = append(quickRuns, run.Seconds())
		quickEvents = append(quickEvents, res.Events)
	}
	for _, e := range quickEvents {
		r.check(e == quickEvents[0], "quick-scale Org2 job executed %d events, then %d, at one seed", quickEvents[0], e)
	}

	_, off, resOff, err := simulate(org2Config(sat, 10000, 100000, 10000))
	if err != nil {
		return err
	}
	cfg := org2Config(sat, 10000, 100000, 10000)
	cfg.Telemetry = &mcsim.TelemetryConfig{}
	_, on, resOn, err := simulate(cfg)
	if err != nil {
		return err
	}
	r.check(resOn.Events == resOff.Events && resOn.Generated == resOff.Generated,
		"paper-scale Org2 job: %d events/%d messages with telemetry, %d/%d without",
		resOn.Events, resOn.Generated, resOff.Events, resOff.Generated)

	quickSetup := median(setups)
	r.layer("mcsim.setup_ms", quickSetup*1e3, "ms")
	r.layer("mcsim.setup_share", quickSetup/(quickSetup+median(quickRuns)), "ratio")
	r.layer("mcsim.run_s", off.Seconds(), "s")
	r.layer("mcsim.ns_per_event", float64(off.Nanoseconds())/float64(resOff.Events), "ns")
	r.layer("mcsim.events_per_msg", float64(resOff.Events)/float64(resOff.Generated), "count")
	r.layer("mcsim.telemetry_overhead", on.Seconds()/off.Seconds(), "ratio")
	return nil
}

func probeSystemTopo(r *run, parent int32) error {
	org1 := system.Table1Org1()
	secs, err := timeIt(r.tr, parent, "system.New", 21, func() error {
		_, err := system.New(org1)
		return err
	})
	if err != nil {
		return err
	}
	r.layer("system.new_ms", secs*1e3, "ms")

	fat, err := topo.New(topo.Spec{}, 8, 3, routing.Balanced)
	if err != nil {
		return fmt.Errorf("topo.New fattree: %w", err)
	}
	jelly, err := topo.New(topo.Spec{Kind: topo.KindJellyfish}, 8, 3, routing.Balanced)
	if err != nil {
		return fmt.Errorf("topo.New jellyfish: %w", err)
	}
	dfly, err := topo.NewGlobal(topo.Spec{Kind: topo.KindDragonfly}, 8, 32, routing.Balanced)
	if err != nil {
		return fmt.Errorf("topo.NewGlobal dragonfly: %w", err)
	}
	for _, tp := range []topo.Topology{fat, jelly, dfly} {
		r.layer("topo.route_ns."+tp.Kind(), routeNs(r.tr, parent, tp), "ns")
	}
	return nil
}

// routeNs is the median over repetitions of the mean AppendRoute time over
// a fixed sample of 4096 ordered pairs of distinct endpoints.
func routeNs(t *tracer, parent int32, tp topo.Topology) float64 {
	rng := rand.New(rand.NewPCG(probeSeed, 1))
	type pair struct{ src, dst int }
	pairs := make([]pair, 4096)
	for i := range pairs {
		src := rng.IntN(tp.Nodes())
		dst := rng.IntN(tp.Nodes() - 1)
		if dst >= src {
			dst++
		}
		pairs[i] = pair{src, dst}
	}
	path := make([]int32, 0, tp.MaxRouteLen())
	var reps []float64
	for rep := 0; rep < 15; rep++ {
		id := t.begin("topo.AppendRoute."+tp.Kind(), parent)
		start := time.Now()
		for i, p := range pairs {
			path = tp.AppendRoute(path[:0], 0, p.src, p.dst, uint64(i))
		}
		reps = append(reps, float64(time.Since(start).Nanoseconds())/float64(len(pairs)))
		t.end(id)
	}
	return median(reps)
}

func probeAnalytic(r *run, parent int32) error {
	sys, err := system.New(system.Table1Org1())
	if err != nil {
		return err
	}
	opts, err := sweep.ModelOptions("calibrated")
	if err != nil {
		return err
	}
	var m *analytic.Model
	secs, err := timeIt(r.tr, parent, "analytic.New", 21, func() error {
		m, err = analytic.New(sys, units.Default(), opts)
		return err
	})
	if err != nil {
		return err
	}
	r.layer("analytic.new_ms", secs*1e3, "ms")

	// Saturation search on a fresh grid each time, as a server miss on a
	// newly prepared model pays it.
	var sat float64
	secs, _ = timeIt(r.tr, parent, "analytic.Grid.SaturationPoint", 11, func() error {
		sat = analytic.NewGrid(m).SaturationPoint(1e-6, 1, 1e-4)
		return nil
	})
	r.layer("analytic.satpoint_ms", secs*1e3, "ms")

	// Evaluate at distinct loads, so no point replays a memoized one.
	g := analytic.NewGrid(m)
	const points = 200
	var us []float64
	for i := 0; i < points; i++ {
		lambda := sat * (0.05 + 0.9*float64(i)/points)
		id := r.tr.begin("analytic.Grid.Evaluate", parent)
		start := time.Now()
		_, err := g.Evaluate(lambda)
		us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
		r.tr.end(id)
		if err != nil {
			return fmt.Errorf("analytic.Grid.Evaluate(%g): %w", lambda, err)
		}
	}
	r.layer("analytic.eval_us", median(us), "us")
	return nil
}

// saturation is the calibrated model's saturation point of org, the load
// scale every workload draws its λ values on.
func saturation(org system.Organization) (float64, error) {
	g, err := modelGrid(org)
	if err != nil {
		return 0, err
	}
	return g.SaturationPoint(1e-6, 1, 1e-4), nil
}

// modelGrid builds the calibrated model the service answers /v1/analyze
// with, at the default message geometry and technology.
func modelGrid(org system.Organization) (*analytic.Grid, error) {
	sys, err := system.New(org)
	if err != nil {
		return nil, fmt.Errorf("system.New: %w", err)
	}
	opts, err := sweep.ModelOptions("calibrated")
	if err != nil {
		return nil, err
	}
	m, err := analytic.New(sys, units.Default(), opts)
	if err != nil {
		return nil, fmt.Errorf("analytic.New: %w", err)
	}
	return analytic.NewGrid(m), nil
}
