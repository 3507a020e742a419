// Package experiments regenerates the paper's evaluation artifacts — the
// Table 1 organizations and the four latency-vs-offered-traffic panels of
// Figures 3 and 4 — together with the ablations and extensions catalogued in
// DESIGN.md. Each experiment produces analysis and simulation series over
// the same traffic grid, ready for rendering by the plot package.
package experiments

import (
	"fmt"
	"math"
	"strings"

	"mcnet/internal/analytic"
	"mcnet/internal/plot"
	"mcnet/internal/stats"
	"mcnet/internal/sweep"
	"mcnet/internal/system"
	"mcnet/internal/units"
)

// Scale controls the cost of the simulation side of an experiment.
type Scale struct {
	// Warmup, Measure and Drain are the phase message counts (paper §4:
	// 10000/100000/10000).
	Warmup, Measure, Drain int
	// Seed is the base RNG seed; every simulation job derives its own seed
	// from it and the job's identity hash (see internal/sweep).
	Seed uint64
	// Reps is the number of independent replications averaged per point
	// (the paper reports single runs; >1 adds error estimates).
	Reps int
}

// PaperScale reproduces the paper's §4 methodology exactly.
func PaperScale() Scale { return Scale{Warmup: 10000, Measure: 100000, Drain: 10000, Seed: 1, Reps: 1} }

// QuickScale is a ~10× cheaper setting for tests and benchmarks.
func QuickScale() Scale { return Scale{Warmup: 1000, Measure: 10000, Drain: 1000, Seed: 1, Reps: 1} }

// Point is one operating point of a latency curve.
type Point struct {
	Lambda float64
	// Analysis is the model's Eq. 36 value (NaN when the model is saturated
	// at this load — the curve simply ends, as in the paper's plots).
	Analysis float64
	// Simulation is the measured mean latency; SimStdDev is the standard
	// deviation across replications (0 for single runs).
	Simulation float64
	SimStdDev  float64
	// AnalysisSaturated marks loads past the model's stability region.
	AnalysisSaturated bool
}

// Curve is one (message geometry) line of a figure: analysis + simulation.
type Curve struct {
	Label     string
	FlitBytes int
	Points    []Point
}

// Figure is a regenerated evaluation panel.
type Figure struct {
	Name    string // e.g. "fig3-m32"
	Title   string
	Org     system.Organization
	MFlits  int
	XMax    float64
	Curves  []Curve
	Scale   Scale
	Options analytic.Options
}

// Runner carries the common knobs of all experiments. Every experiment's
// simulation grid runs as a sweep spec on the sweep engine, so worker
// bounds, deterministic per-job seeding and (optionally) result caching are
// inherited from that subsystem.
type Runner struct {
	Scale   Scale
	Options analytic.Options
	// Workers bounds the simulation parallelism (0 = GOMAXPROCS), enforced
	// by the sweep engine's worker pool.
	Workers int
	// Cache, if non-nil, caches simulation outcomes across runs (see
	// sweep.NewDirCache); repeated figures then cost only the cache misses.
	Cache sweep.Cache
	// ExtraSinks, if non-nil, is consulted for every sweep spec an
	// experiment executes; the returned sinks receive that sweep's results
	// in job order alongside the internal in-memory collection. The
	// reproduction pipeline (internal/repro) uses it to persist each study's
	// raw sweep rows into the run directory.
	ExtraSinks func(spec sweep.Spec) []sweep.Sink
}

// NewRunner returns a Runner with the calibrated model options.
func NewRunner(scale Scale) Runner {
	return Runner{Scale: scale, Options: analytic.DefaultOptions()}
}

// simSpec builds the simulation side of an experiment as a sweep spec: an
// explicit load grid at the runner's measurement scale, with engine-side
// analysis disabled (experiments attach their own model curves, which may
// use custom options). Tier overrides carried by par become the spec's link
// axis, so a study handed heterogeneous technology simulates it too
// (studies that sweep links themselves overwrite Links afterwards).
// newModelGrid builds the analytic model and wraps it in a batched
// evaluator: every study probes its model over a load grid (plus the
// saturation search), exactly the access pattern analytic.Grid amortizes.
func newModelGrid(sys *system.System, par units.Params, opts analytic.Options) (*analytic.Grid, error) {
	m, err := analytic.New(sys, par, opts)
	if err != nil {
		return nil, err
	}
	return analytic.NewGrid(m), nil
}

func (r Runner) simSpec(name string, org system.Organization, par units.Params, lambdas []float64) sweep.Spec {
	spec := sweep.Spec{
		Name:     name,
		Orgs:     []string{system.Format(org)},
		Messages: []sweep.MessageGeometry{{Flits: par.MessageFlits, FlitBytes: par.FlitBytes}},
		Loads:    sweep.Loads{Lambdas: lambdas},
		Warmup:   r.Scale.Warmup, Measure: r.Scale.Measure, Drain: r.Scale.Drain,
		BaseSeed: r.Scale.Seed, Reps: r.Scale.Reps,
		Model: "none",
		Tech:  &sweep.Tech{AlphaNet: par.AlphaNet, AlphaSw: par.AlphaSw, BetaNet: par.BetaNet},
	}
	if !par.Tiers.Homogeneous() {
		spec.Links = []string{par.Tiers.String()}
	}
	return spec
}

// runSweep executes a spec on the runner's engine and collects the results
// in job order.
func (r Runner) runSweep(spec sweep.Spec) ([]sweep.Result, error) {
	mem := &sweep.MemorySink{}
	sinks := []sweep.Sink{mem}
	if r.ExtraSinks != nil {
		sinks = append(sinks, r.ExtraSinks(spec)...)
	}
	eng := &sweep.Engine{Workers: r.Workers, Cache: r.Cache, Sinks: sinks}
	if _, err := eng.Run(spec); err != nil {
		return nil, err
	}
	return mem.Results, nil
}

// pointStat is an aggregated simulation measurement at one grid point.
type pointStat struct{ mean, sd float64 }

// aggregateReps folds a sweep's replications into per-point means and
// standard deviations, keyed by the caller's choice of job coordinates.
// Replications that delivered nothing (NaN latency) are skipped; a point
// with no surviving replication aggregates to NaN.
func aggregateReps(results []sweep.Result, key func(sweep.Job) [2]int) map[[2]int]pointStat {
	accs := make(map[[2]int]*stats.Running)
	for _, res := range results {
		k := key(res.Job)
		acc := accs[k]
		if acc == nil {
			acc = &stats.Running{}
			accs[k] = acc
		}
		if v := float64(res.SimLatency); !math.IsNaN(v) {
			acc.Add(v)
		}
	}
	out := make(map[[2]int]pointStat, len(accs))
	for k, acc := range accs {
		switch {
		case acc.Count() == 0:
			out[k] = pointStat{mean: math.NaN()}
		case acc.Count() == 1:
			out[k] = pointStat{mean: acc.Mean()}
		default:
			out[k] = pointStat{mean: acc.Mean(), sd: acc.StdDev()}
		}
	}
	return out
}

// LatencyFigure regenerates one latency-vs-offered-traffic panel: for each
// flit size a model curve and a simulation curve over a common traffic grid
// whose right edge is set just past the latest model saturation point —
// mirroring how the paper chose its x-ranges (they end where the analysis
// saturates).
func (r Runner) LatencyFigure(name, title string, org system.Organization, mFlits int, flitBytes []int, points int) (Figure, error) {
	fig := Figure{
		Name: name, Title: title, Org: org, MFlits: mFlits,
		Scale: r.Scale, Options: r.Options,
	}
	sys, err := system.New(org)
	if err != nil {
		return fig, err
	}
	models := make([]*analytic.Grid, len(flitBytes))
	var xMax float64
	for i, lm := range flitBytes {
		par := units.Default().WithMessage(mFlits, lm)
		m, err := newModelGrid(sys, par, r.Options)
		if err != nil {
			return fig, err
		}
		models[i] = m
		sat := m.SaturationPoint(1e-6, 1, 1e-3)
		if !math.IsInf(sat, 1) && sat > xMax {
			xMax = sat
		}
	}
	if xMax == 0 {
		return fig, fmt.Errorf("experiments: no finite saturation point for %s", name)
	}
	xMax *= 1.02
	fig.XMax = xMax

	lambdas := make([]float64, points)
	for pi := range lambdas {
		lambdas[pi] = xMax * float64(pi+1) / float64(points)
	}
	fig.Curves = make([]Curve, len(flitBytes))
	for ci, lm := range flitBytes {
		fig.Curves[ci] = Curve{
			Label:     fmt.Sprintf("Lm=%d", lm),
			FlitBytes: lm,
			Points:    make([]Point, points),
		}
		for pi := range lambdas {
			pt := &fig.Curves[ci].Points[pi]
			pt.Lambda = lambdas[pi]
			an, err := models[ci].MeanLatency(lambdas[pi])
			if err != nil {
				pt.Analysis = math.NaN()
				pt.AnalysisSaturated = true
			} else {
				pt.Analysis = an
			}
		}
	}
	// The figure's whole simulation grid is one sweep: the message-geometry
	// axis carries the curves, the load axis the operating points.
	spec := r.simSpec(name, org, units.Default().WithMessage(mFlits, flitBytes[0]), lambdas)
	spec.Messages = make([]sweep.MessageGeometry, len(flitBytes))
	for ci, lm := range flitBytes {
		spec.Messages[ci] = sweep.MessageGeometry{Flits: mFlits, FlitBytes: lm}
	}
	results, err := r.runSweep(spec)
	if err != nil {
		return fig, err
	}
	for k, st := range aggregateReps(results, func(j sweep.Job) [2]int { return [2]int{j.MsgIndex, j.LoadIndex} }) {
		pt := &fig.Curves[k[0]].Points[k[1]]
		pt.Simulation = st.mean
		pt.SimStdDev = st.sd
	}
	return fig, nil
}

// Figure3M32 regenerates the left panel of the paper's Fig. 3
// (N=1120, m=8, M=32, Lm ∈ {256, 512}).
func (r Runner) Figure3M32() (Figure, error) {
	return r.LatencyFigure("fig3-m32", "Fig. 3 (left): N=1120, m=8, M=32",
		system.Table1Org1(), 32, []int{256, 512}, 10)
}

// Figure3M64 regenerates the right panel of the paper's Fig. 3 (M=64).
func (r Runner) Figure3M64() (Figure, error) {
	return r.LatencyFigure("fig3-m64", "Fig. 3 (right): N=1120, m=8, M=64",
		system.Table1Org1(), 64, []int{256, 512}, 10)
}

// Figure4M32 regenerates the left panel of the paper's Fig. 4
// (N=544, m=4, M=32).
func (r Runner) Figure4M32() (Figure, error) {
	return r.LatencyFigure("fig4-m32", "Fig. 4 (left): N=544, m=4, M=32",
		system.Table1Org2(), 32, []int{256, 512}, 10)
}

// Figure4M64 regenerates the right panel of the paper's Fig. 4 (M=64).
func (r Runner) Figure4M64() (Figure, error) {
	return r.LatencyFigure("fig4-m64", "Fig. 4 (right): N=544, m=4, M=64",
		system.Table1Org2(), 64, []int{256, 512}, 10)
}

// Series converts the figure into plottable series: per curve, an analysis
// line and a simulation line sharing the x grid.
func (f Figure) Series() []plot.Series {
	var out []plot.Series
	markers := []rune{'a', 'o', 'A', 'O'}
	for ci, c := range f.Curves {
		xs := make([]float64, len(c.Points))
		an := make([]float64, len(c.Points))
		sim := make([]float64, len(c.Points))
		for i, p := range c.Points {
			xs[i] = p.Lambda
			an[i] = p.Analysis
			sim[i] = p.Simulation
		}
		out = append(out,
			plot.Series{Label: "analysis " + c.Label, X: xs, Y: an, Marker: markers[(2*ci)%len(markers)]},
			plot.Series{Label: "simulation " + c.Label, X: xs, Y: sim, Marker: markers[(2*ci+1)%len(markers)]},
		)
	}
	return out
}

// Render draws the figure as an ASCII chart in the style of the paper's
// panels (y clipped a little above the largest finite analysis value, so
// saturated simulation points show as off-scale markers).
func (f Figure) Render(width, height int) string {
	var yCap float64
	for _, c := range f.Curves {
		for _, p := range c.Points {
			if !math.IsNaN(p.Analysis) && p.Analysis > yCap {
				yCap = p.Analysis
			}
		}
	}
	yCap *= 1.6
	var b strings.Builder
	b.WriteString(plot.ASCII(f.Title, f.Series(), width, height, yCap))
	b.WriteString(fmt.Sprintf("%10s  x-axis: offered traffic λ_g (messages/node/time-unit); y: mean latency\n", ""))
	return b.String()
}

// Table1 regenerates the paper's Table 1: the two validated organizations
// with their derived quantities, verified against Eqs. 1–2.
func Table1() string {
	var b strings.Builder
	b.WriteString("Table 1. System organizations for validation\n\n")
	for _, org := range []system.Organization{system.Table1Org1(), system.Table1Org2()} {
		b.WriteString(system.MustNew(org).Summary())
		b.WriteString("\n")
	}
	return b.String()
}

// TrafficPatternStudy (Extension 1) measures simulated latency under the
// uniform, hotspot and cluster-local patterns at a common traffic grid,
// with the model's uniform-traffic curve for reference. It quantifies how
// far the model's assumption 2 carries under non-uniform load.
func (r Runner) TrafficPatternStudy(org system.Organization, par units.Params, points int) ([]plot.Series, error) {
	sys, err := system.New(org)
	if err != nil {
		return nil, err
	}
	model, err := newModelGrid(sys, par, r.Options)
	if err != nil {
		return nil, err
	}
	sat := model.SaturationPoint(1e-6, 1, 1e-3)
	if math.IsInf(sat, 1) {
		return nil, fmt.Errorf("experiments: no saturation point")
	}
	xs := make([]float64, points)
	for i := range xs {
		xs[i] = 0.7 * sat * float64(i+1) / float64(points)
	}
	patterns := []struct{ label, spec string }{
		{"uniform", "uniform"},
		{"hotspot 5%", "hotspot:0.05"},
		{"cluster-local 60%", "cluster-local:0.6"},
	}
	series := make([]plot.Series, len(patterns)+1)
	series[0] = plot.Series{Label: "analysis uniform", X: xs, Y: make([]float64, points)}
	for i, x := range xs {
		v, err := model.MeanLatency(x)
		if err != nil {
			v = math.NaN()
		}
		series[0].Y[i] = v
	}
	for pi, p := range patterns {
		series[pi+1] = plot.Series{Label: "sim " + p.label, X: xs, Y: make([]float64, points)}
	}
	spec := r.simSpec("traffic-patterns", org, par, xs)
	spec.Patterns = make([]string, len(patterns))
	for pi, p := range patterns {
		spec.Patterns[pi] = p.spec
	}
	results, err := r.runSweep(spec)
	if err != nil {
		return nil, err
	}
	for k, st := range aggregateReps(results, func(j sweep.Job) [2]int { return [2]int{j.PatternIndex, j.LoadIndex} }) {
		series[k[0]+1].Y[k[1]] = st.mean
	}
	return series, nil
}

// WorkloadStudy (Extension 3) sweeps the burstiness × size-mix grid the
// paper names as future work: arrival processes (Poisson, on-off MMPP at two
// burstiness levels) crossed with message-length distributions (fixed M and
// a bimodal short/long mix with the same mean), against the Poisson/fixed-M
// analytic curve. Where the simulated curves pull away from the analysis is
// exactly where the model's assumptions 1 and 3 stop carrying.
func (r Runner) WorkloadStudy(org system.Organization, par units.Params, points int) ([]plot.Series, error) {
	sys, err := system.New(org)
	if err != nil {
		return nil, err
	}
	model, err := newModelGrid(sys, par, r.Options)
	if err != nil {
		return nil, err
	}
	sat := model.SaturationPoint(1e-6, 1, 1e-3)
	if math.IsInf(sat, 1) {
		return nil, fmt.Errorf("experiments: no saturation point")
	}
	xs := make([]float64, points)
	for i := range xs {
		xs[i] = 0.7 * sat * float64(i+1) / float64(points)
	}
	arrivals := []string{"poisson", "mmpp:16:32", "mmpp:64:64"}
	// The bimodal mix is chosen to preserve the mean length M=32
	// (0.2·128 + 0.8·8 = 32), isolating the variability effect.
	sizes := []string{"fixed", "bimodal:8:128:0.2"}

	series := make([]plot.Series, 1, 1+len(arrivals)*len(sizes))
	series[0] = plot.Series{Label: "analysis poisson/fixed", X: xs, Y: make([]float64, points)}
	for i, x := range xs {
		v, err := model.MeanLatency(x)
		if err != nil {
			v = math.NaN()
		}
		series[0].Y[i] = v
	}
	for _, a := range arrivals {
		for _, d := range sizes {
			series = append(series, plot.Series{
				Label: "sim " + a + "/" + strings.SplitN(d, ":", 2)[0],
				X:     xs, Y: make([]float64, points),
			})
		}
	}
	spec := r.simSpec("workload-study", org, par, xs)
	spec.Arrivals = arrivals
	spec.Sizes = sizes
	results, err := r.runSweep(spec)
	if err != nil {
		return nil, err
	}
	for k, st := range aggregateReps(results, func(j sweep.Job) [2]int {
		return [2]int{j.ArrivalIndex*len(sizes) + j.SizeIndex, j.LoadIndex}
	}) {
		series[k[0]+1].Y[k[1]] = st.mean
	}
	return series, nil
}

// LinkHeterogeneityConfigs are the per-tier technology points of the
// link-heterogeneity study (units.ParseTiers syntax): the homogeneous §4
// technology, a slow campus backbone (ICN2 and concentrator links at double
// latency and half bandwidth), and a fast intra-cluster fabric.
var LinkHeterogeneityConfigs = []struct{ Label, Links string }{
	{"uniform", "uniform"},
	{"slow icn2", "icn2=0.04/0.02/0.004+conc=0.04/0.02/0.004"},
	{"fast icn1", "icn1=0.01/0.005/0.001"},
}

// LinkHeterogeneityStudy (Extension 4) opens the last heterogeneity
// dimension the paper names but does not evaluate: per-tier link technology.
// For each configuration it runs the tier-indexed model and the simulator
// over a common traffic grid (bounded by the slowest configuration's
// saturation), so the series pair off as analysis/simulation per
// configuration — the same model-vs-simulation reading as Figures 3–4,
// repeated per link technology.
func (r Runner) LinkHeterogeneityStudy(org system.Organization, par units.Params, points int) ([]plot.Series, error) {
	sys, err := system.New(org)
	if err != nil {
		return nil, err
	}
	configs := LinkHeterogeneityConfigs
	models := make([]*analytic.Grid, len(configs))
	linksAxis := make([]string, len(configs))
	minSat := math.Inf(1)
	for ci, c := range configs {
		p := par
		tiers, err := units.ParseTiers(c.Links)
		if err != nil {
			return nil, err
		}
		p.Tiers = tiers
		linksAxis[ci] = c.Links
		if models[ci], err = newModelGrid(sys, p, r.Options); err != nil {
			return nil, err
		}
		sat := models[ci].SaturationPoint(1e-6, 1, 1e-3)
		if math.IsInf(sat, 1) {
			return nil, fmt.Errorf("experiments: no saturation point for links %q", c.Links)
		}
		if sat < minSat {
			minSat = sat
		}
	}
	xs := make([]float64, points)
	for i := range xs {
		// Stay in the steady-state region, where the model is valid.
		xs[i] = 0.55 * minSat * float64(i+1) / float64(points)
	}
	series := make([]plot.Series, 0, 2*len(configs))
	for ci, c := range configs {
		an := plot.Series{Label: "analysis " + c.Label, X: xs, Y: make([]float64, points)}
		for i, x := range xs {
			v, err := models[ci].MeanLatency(x)
			if err != nil {
				v = math.NaN()
			}
			an.Y[i] = v
		}
		series = append(series,
			an,
			plot.Series{Label: "sim " + c.Label, X: xs, Y: make([]float64, points)},
		)
	}
	spec := r.simSpec("link-hetero", org, par, xs)
	spec.Links = linksAxis
	results, err := r.runSweep(spec)
	if err != nil {
		return nil, err
	}
	for k, st := range aggregateReps(results, func(j sweep.Job) [2]int { return [2]int{j.LinksIndex, j.LoadIndex} }) {
		series[2*k[0]+1].Y[k[1]] = st.mean
	}
	return series, nil
}

// TopologyConfigs are the equal-switch-budget interconnect points of the
// topology comparison study (topo.ParseAxis syntax): the paper's fat trees,
// a seeded random-regular (Jellyfish-style) ICN1 over the same switch and
// node budget, and a Dragonfly-style global ICN2.
var TopologyConfigs = []struct{ Label, Axis string }{
	{"fat-tree", ""},
	{"jellyfish", "jellyfish"},
	{"dragonfly icn2", "fattree+dragonfly"},
}

// TopologyCompareStudy (Extension 5) compares interconnect topologies at an
// equal switch budget: for each configuration it runs the
// route-distribution-indexed model and the simulator over a common traffic
// grid (bounded by the earliest saturation across configurations), so the
// series pair off as analysis/simulation per topology — the same
// model-vs-simulation reading as Figures 3–4, repeated per interconnect.
func (r Runner) TopologyCompareStudy(org system.Organization, par units.Params, points int) ([]plot.Series, error) {
	configs := TopologyConfigs
	models := make([]*analytic.Grid, len(configs))
	topoAxis := make([]string, len(configs))
	minSat := math.Inf(1)
	for ci, c := range configs {
		// ApplyTopologyAxis overwrites the Specs slice in place, so every
		// configuration re-parses an owned copy of the organization.
		o, err := system.ParseOrganization(system.Format(org))
		if err != nil {
			return nil, err
		}
		if err := system.ApplyTopologyAxis(&o, c.Axis); err != nil {
			return nil, err
		}
		sys, err := system.New(o)
		if err != nil {
			return nil, err
		}
		topoAxis[ci] = c.Axis
		if models[ci], err = newModelGrid(sys, par, r.Options); err != nil {
			return nil, err
		}
		sat := models[ci].SaturationPoint(1e-6, 1, 1e-3)
		if math.IsInf(sat, 1) {
			return nil, fmt.Errorf("experiments: no saturation point for topology %q", c.Label)
		}
		if sat < minSat {
			minSat = sat
		}
	}
	xs := make([]float64, points)
	for i := range xs {
		// Stay in the steady-state region, where the model is valid.
		xs[i] = 0.55 * minSat * float64(i+1) / float64(points)
	}
	series := make([]plot.Series, 0, 2*len(configs))
	for ci, c := range configs {
		an := plot.Series{Label: "analysis " + c.Label, X: xs, Y: make([]float64, points)}
		for i, x := range xs {
			v, err := models[ci].MeanLatency(x)
			if err != nil {
				v = math.NaN()
			}
			an.Y[i] = v
		}
		series = append(series,
			an,
			plot.Series{Label: "sim " + c.Label, X: xs, Y: make([]float64, points)},
		)
	}
	spec := r.simSpec("topology-compare", org, par, xs)
	spec.Topologies = topoAxis
	results, err := r.runSweep(spec)
	if err != nil {
		return nil, err
	}
	for k, st := range aggregateReps(results, func(j sweep.Job) [2]int { return [2]int{j.TopoIndex, j.LoadIndex} }) {
		series[2*k[0]+1].Y[k[1]] = st.mean
	}
	return series, nil
}

// RoutingAblation (Ablation B) contrasts balanced destination-digit ascent
// with oblivious random ascent in the simulator, quantifying the switch
// contention the paper's routing choice avoids.
func (r Runner) RoutingAblation(org system.Organization, par units.Params, points int) ([]plot.Series, error) {
	sys, err := system.New(org)
	if err != nil {
		return nil, err
	}
	model, err := newModelGrid(sys, par, r.Options)
	if err != nil {
		return nil, err
	}
	sat := model.SaturationPoint(1e-6, 1, 1e-3)
	xs := make([]float64, points)
	for i := range xs {
		xs[i] = 0.85 * sat * float64(i+1) / float64(points)
	}
	modes := []string{"balanced", "random-up"}
	series := make([]plot.Series, len(modes))
	for mi := range modes {
		series[mi] = plot.Series{Label: "sim " + modes[mi], X: xs, Y: make([]float64, points)}
	}
	spec := r.simSpec("routing-ablation", org, par, xs)
	spec.Routing = modes
	results, err := r.runSweep(spec)
	if err != nil {
		return nil, err
	}
	for k, st := range aggregateReps(results, func(j sweep.Job) [2]int { return [2]int{j.RoutingIndex, j.LoadIndex} }) {
		series[k[0]].Y[k[1]] = st.mean
	}
	return series, nil
}

// InterpretationAblation (Ablation A) plots the calibrated model, the
// paper-literal model and the simulation on one grid, documenting why the
// calibrated reading was chosen (see DESIGN.md §3).
func (r Runner) InterpretationAblation(org system.Organization, par units.Params, points int) ([]plot.Series, error) {
	sys, err := system.New(org)
	if err != nil {
		return nil, err
	}
	calibrated, err := newModelGrid(sys, par, analytic.DefaultOptions())
	if err != nil {
		return nil, err
	}
	literal, err := newModelGrid(sys, par, analytic.PaperLiteralOptions())
	if err != nil {
		return nil, err
	}
	sat := calibrated.SaturationPoint(1e-6, 1, 1e-3)
	xs := make([]float64, points)
	for i := range xs {
		xs[i] = sat * float64(i+1) / float64(points)
	}
	mk := func(label string, m *analytic.Grid) plot.Series {
		s := plot.Series{Label: label, X: xs, Y: make([]float64, points)}
		for i, x := range xs {
			v, err := m.MeanLatency(x)
			if err != nil {
				v = math.NaN()
			}
			s.Y[i] = v
		}
		return s
	}
	series := []plot.Series{
		mk("model calibrated", calibrated),
		mk("model paper-literal", literal),
		{Label: "simulation", X: xs, Y: make([]float64, points)},
	}
	results, err := r.runSweep(r.simSpec("interpretation-ablation", org, par, xs))
	if err != nil {
		return nil, err
	}
	for k, st := range aggregateReps(results, func(j sweep.Job) [2]int { return [2]int{0, j.LoadIndex} }) {
		series[2].Y[k[1]] = st.mean
	}
	return series, nil
}

// validationOrgs are the organizations of the validation sweep: the
// paper's two Table 1 systems, by their named shortcuts.
var validationOrgs = []string{"org1", "org2"}

// ValidationStudy is the paper's §4 accuracy claim as one sweep: every
// validation organization at `points` loads λ_sat·i/points spanning its
// calibrated stability region, with the engine's calibrated analysis beside
// each simulation. x is λ/λ_sat, so the organizations share one load axis
// and Agree's saturation onsets read as fractions of λ_sat.
func (r Runner) ValidationStudy(points int) ([]plot.Series, error) {
	results, err := r.runSweep(sweep.Spec{
		Name:   "validate",
		Orgs:   validationOrgs,
		Loads:  sweep.Loads{Points: points, MaxFraction: 1},
		Warmup: r.Scale.Warmup, Measure: r.Scale.Measure, Drain: r.Scale.Drain,
		BaseSeed: r.Scale.Seed, Reps: r.Scale.Reps,
		Model: "calibrated",
	})
	if err != nil {
		return nil, err
	}
	xs := make([]float64, points)
	for i := range xs {
		xs[i] = float64(i+1) / float64(points)
	}
	series := make([]plot.Series, 0, 2*len(validationOrgs))
	for _, org := range validationOrgs {
		series = append(series,
			plot.Series{Label: "analysis " + org, X: xs, Y: make([]float64, points)},
			plot.Series{Label: "sim " + org, X: xs, Y: make([]float64, points)},
		)
	}
	for _, res := range results {
		series[2*res.Job.OrgIndex].Y[res.Job.LoadIndex] = float64(res.Analysis)
	}
	for k, st := range aggregateReps(results, func(j sweep.Job) [2]int { return [2]int{j.OrgIndex, j.LoadIndex} }) {
		series[2*k[0]+1].Y[k[1]] = st.mean
	}
	return series, nil
}

// RateHeterogeneityStudy (Extension 2) compares model and simulation on an
// organization whose clusters inject at different rates, the processor-
// power heterogeneity dimension from the authors' companion work [24].
func (r Runner) RateHeterogeneityStudy(points int) ([]plot.Series, error) {
	org := system.Organization{
		Name:  "rate-hetero (N=96, C=8, m=4)",
		Ports: 4,
		Specs: []system.ClusterSpec{
			{Count: 4, Levels: 2, RateFactor: 2}, // "fast" clusters
			{Count: 4, Levels: 2, RateFactor: 1},
		},
	}
	par := units.Default()
	sys, err := system.New(org)
	if err != nil {
		return nil, err
	}
	model, err := newModelGrid(sys, par, r.Options)
	if err != nil {
		return nil, err
	}
	sat := model.SaturationPoint(1e-6, 1, 1e-3)
	xs := make([]float64, points)
	for i := range xs {
		// Stay in the steady-state region, where the model is valid.
		xs[i] = 0.5 * sat * float64(i+1) / float64(points)
	}
	series := []plot.Series{
		{Label: "analysis", X: xs, Y: make([]float64, points)},
		{Label: "simulation", X: xs, Y: make([]float64, points)},
	}
	for i, x := range xs {
		v, err := model.MeanLatency(x)
		if err != nil {
			v = math.NaN()
		}
		series[0].Y[i] = v
	}
	results, err := r.runSweep(r.simSpec("rate-hetero", org, par, xs))
	if err != nil {
		return nil, err
	}
	for k, st := range aggregateReps(results, func(j sweep.Job) [2]int { return [2]int{0, j.LoadIndex} }) {
		series[1].Y[k[1]] = st.mean
	}
	return series, nil
}
