// Package validate quantifies how well the analytical model reproduces the
// simulator: point comparisons, sweep comparisons with steady-state region
// detection, and the empirical saturation point. It is the programmatic
// backbone of the claims recorded in EXPERIMENTS.md.
package validate

import (
	"fmt"
	"math"
	"strings"

	"mcnet/internal/analytic"
	"mcnet/internal/mcsim"
	"mcnet/internal/system"
	"mcnet/internal/units"
)

// Config bundles what a validation needs.
type Config struct {
	Org system.Organization
	Par units.Params
	Opt analytic.Options
	// Warmup/Measure/Drain control the simulation cost per point.
	Warmup, Measure, Drain int
	Seed                   uint64
}

// WithDefaults fills zero fields with the paper's methodology.
func (c Config) WithDefaults() Config {
	if c.Warmup == 0 {
		c.Warmup = 10000
	}
	if c.Measure == 0 {
		c.Measure = 100000
	}
	if c.Drain == 0 {
		c.Drain = 10000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Opt == (analytic.Options{}) {
		c.Opt = analytic.DefaultOptions()
	}
	return c
}

// PointComparison is one operating point, both ways.
type PointComparison struct {
	Lambda            float64
	Analysis          float64
	Simulation        float64
	RelErr            float64 // |analysis−simulation|/simulation
	AnalysisSaturated bool
	// SteadyState marks points inside the model's validity region: the
	// simulated latency is below 3× the zero-load analysis value.
	SteadyState bool
}

// Report is the outcome of a sweep validation.
type Report struct {
	Points []PointComparison
	// ModelSaturation is the analytic λ_sat; SimKnee is the empirical
	// saturation estimate (first grid point whose simulated latency exceeds
	// 3× zero load, NaN if none).
	ModelSaturation float64
	SimKnee         float64
	// SteadyStateMAPE is the mean absolute relative error over steady-state
	// points; MaxSteadyStateErr the worst such point.
	SteadyStateMAPE   float64
	MaxSteadyStateErr float64
	ZeroLoadAnalysis  float64
}

// Sweep compares model and simulation over `points` loads spanning the
// model's stability region (up to fraction·λ_sat).
func Sweep(cfg Config, points int, fraction float64) (Report, error) {
	cfg = cfg.WithDefaults()
	if points < 1 {
		return Report{}, fmt.Errorf("validate: need ≥1 point, got %d", points)
	}
	if fraction <= 0 {
		fraction = 1
	}
	sys, err := system.New(cfg.Org)
	if err != nil {
		return Report{}, err
	}
	model, err := analytic.New(sys, cfg.Par, cfg.Opt)
	if err != nil {
		return Report{}, err
	}
	rep := Report{ModelSaturation: model.SaturationPoint(1e-6, 1, 1e-3), SimKnee: math.NaN()}
	if math.IsInf(rep.ModelSaturation, 1) {
		return rep, fmt.Errorf("validate: model never saturates below limit")
	}
	zl, err := model.MeanLatency(rep.ModelSaturation * 1e-6)
	if err != nil {
		return rep, err
	}
	rep.ZeroLoadAnalysis = zl

	var sumErr float64
	var nSteady int
	for i := 1; i <= points; i++ {
		lambda := fraction * rep.ModelSaturation * float64(i) / float64(points)
		pc := PointComparison{Lambda: lambda}
		an, aerr := model.MeanLatency(lambda)
		if aerr != nil {
			pc.AnalysisSaturated = true
			pc.Analysis = math.NaN()
		} else {
			pc.Analysis = an
		}
		res, err := mcsim.Run(mcsim.Config{
			Org: cfg.Org, Par: cfg.Par, LambdaG: lambda,
			Warmup: cfg.Warmup, Measure: cfg.Measure, Drain: cfg.Drain, Seed: cfg.Seed,
		})
		if err != nil {
			return rep, fmt.Errorf("validate: simulation at λ=%g: %w", lambda, err)
		}
		pc.Simulation = res.Latency.Mean
		pc.SteadyState = !pc.AnalysisSaturated && pc.Simulation < 3*zl
		if pc.SteadyState && pc.Simulation > 0 {
			pc.RelErr = math.Abs(pc.Analysis-pc.Simulation) / pc.Simulation
			sumErr += pc.RelErr
			nSteady++
			if pc.RelErr > rep.MaxSteadyStateErr {
				rep.MaxSteadyStateErr = pc.RelErr
			}
		}
		if !pc.SteadyState && math.IsNaN(rep.SimKnee) && pc.Simulation >= 3*zl {
			rep.SimKnee = lambda
		}
		rep.Points = append(rep.Points, pc)
	}
	if nSteady > 0 {
		rep.SteadyStateMAPE = sumErr / float64(nSteady)
	} else {
		rep.SteadyStateMAPE = math.NaN()
	}
	return rep, nil
}

// ClusterComparison is the per-source-cluster split of one operating point:
// the quantity that tests the paper's actual subject, cluster-size
// heterogeneity.
type ClusterComparison struct {
	Cluster    int
	Nodes      int
	Analysis   float64
	Simulation float64
	RelErr     float64
}

// PerCluster compares the model's per-cluster latencies ℓ_i (Eq. 35)
// against the simulator's per-source-cluster measurements at one operating
// point.
func PerCluster(cfg Config, lambda float64) ([]ClusterComparison, error) {
	cfg = cfg.WithDefaults()
	sys, err := system.New(cfg.Org)
	if err != nil {
		return nil, err
	}
	model, err := analytic.New(sys, cfg.Par, cfg.Opt)
	if err != nil {
		return nil, err
	}
	res, err := model.Evaluate(lambda)
	if err != nil {
		return nil, err
	}
	sim, err := mcsim.Run(mcsim.Config{
		Org: cfg.Org, Par: cfg.Par, LambdaG: lambda,
		Warmup: cfg.Warmup, Measure: cfg.Measure, Drain: cfg.Drain, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	out := make([]ClusterComparison, sys.C())
	for i := range out {
		out[i] = ClusterComparison{
			Cluster:    i,
			Nodes:      sys.Clusters[i].Nodes,
			Analysis:   res.PerCluster[i].Latency,
			Simulation: sim.PerCluster[i].Mean,
		}
		if out[i].Simulation > 0 {
			out[i].RelErr = math.Abs(out[i].Analysis-out[i].Simulation) / out[i].Simulation
		}
	}
	return out, nil
}

// String renders the report as a table plus the headline metrics.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%14s %12s %12s %8s %s\n", "lambda", "analysis", "simulation", "err", "region")
	for _, p := range r.Points {
		region := "steady"
		switch {
		case p.AnalysisSaturated:
			region = "model-saturated"
		case !p.SteadyState:
			region = "past-knee"
		}
		errStr := "-"
		if p.SteadyState {
			errStr = fmt.Sprintf("%.1f%%", 100*p.RelErr)
		}
		fmt.Fprintf(&b, "%14.5g %12.4g %12.4g %8s %s\n",
			p.Lambda, p.Analysis, p.Simulation, errStr, region)
	}
	fmt.Fprintf(&b, "model λ_sat = %.5g", r.ModelSaturation)
	if !math.IsNaN(r.SimKnee) {
		fmt.Fprintf(&b, "   simulated knee ≈ %.5g (%.0f%% of λ_sat)",
			r.SimKnee, 100*r.SimKnee/r.ModelSaturation)
	}
	fmt.Fprintf(&b, "\nsteady-state MAPE = %.1f%% (worst point %.1f%%)\n",
		100*r.SteadyStateMAPE, 100*r.MaxSteadyStateErr)
	return b.String()
}
