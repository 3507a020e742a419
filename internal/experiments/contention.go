package experiments

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"mcnet/internal/analytic"
	"mcnet/internal/mcsim"
	"mcnet/internal/plot"
	"mcnet/internal/system"
	"mcnet/internal/units"
)

// ContentionOrgs are the organizations the contention study instruments
// (the paper's two validated Table 1 systems).
var ContentionOrgs = []string{"org1", "org2"}

// contentionMeasureCap bounds the study's measurement phase. The study runs
// up to 0.85× the analytic saturation point, where per-message latencies are
// hundreds of time units: contention *shares* converge far faster than mean
// latency, and uncapped paper-scale runs in that regime would dominate the
// whole pipeline's wall time for no statistical gain.
const contentionMeasureCap = 20000

// BottleneckTiers maps the analytic model's Result.Bottleneck rendering to
// the set of telemetry tiers where that component's congestion can surface
// in a wormhole simulation. The set is wider than the single component
// because wormhole flow control has no buffering to decouple stages: a worm
// blocked at a saturated link holds every channel behind its header, so
// near saturation the measured blocking time spreads *upstream* of the true
// bottleneck (chained blocking, the very effect the paper's merged-journey
// analysis models):
//
//   - a concentrator bottleneck (Eq. 33) surfaces on the concentrator links
//     themselves or, under deep backpressure, in the ECN1 ascent feeding
//     them;
//   - an ICN1 channel-chain or source-queue bottleneck stays inside ICN1
//     (intra journeys touch nothing else);
//   - an external-journey ("E") bottleneck spans the merged
//     ECN1→concentrator→ICN2 walk, so any of those three tiers may carry
//     the observed peak.
//
// An unrecognized rendering returns nil (the caller should fail loudly
// rather than gate against a guess).
func BottleneckTiers(bottleneck string) []string {
	switch {
	case strings.Contains(bottleneck, "concentrator"):
		return []string{mcsim.TierConc.String(), mcsim.TierECN1.String()}
	case strings.Contains(bottleneck, "(ICN1"):
		return []string{mcsim.TierICN1.String()}
	case strings.Contains(bottleneck, "(E,"):
		return []string{mcsim.TierECN1.String(), mcsim.TierConc.String(), mcsim.TierICN2.String()}
	default:
		return nil
	}
}

// contentionLabels is the study's declared series schema: one
// blocking-fraction series per (organization, topology, tier), org-major.
func contentionLabels() []string {
	var out []string
	for _, org := range ContentionOrgs {
		for _, c := range TopologyConfigs {
			for _, tier := range mcsim.TierNames() {
				out = append(out, fmt.Sprintf("%s %s %s", org, c.Label, tier))
			}
		}
	}
	return out
}

// ContentionStudy (Extension 6) maps where contention lives: for each
// organization and interconnect topology it sweeps a load grid up to 0.85×
// the earliest analytic saturation point with the simulator's telemetry
// enabled, and emits the per-tier blocking-time share at every load. The x
// axis is the load as a fraction of saturation, so organizations with very
// different absolute rates share one grid.
//
// The study is self-gating: at the highest load it checks that the tier
// with the largest observed blocking share is one the analytic model's
// SaturationPoint bottleneck rendering predicts (see BottleneckTiers) for
// every organization × topology, and fails — failing the reproduction
// pipeline's verdict — on any mismatch. This is the machine check that the
// simulator and the model agree not just on *how much* latency but on
// *where* it comes from.
func (r Runner) ContentionStudy(points int) ([]plot.Series, error) {
	if points < 1 {
		points = 1
	}
	fracs := make([]float64, points)
	for i := range fracs {
		fracs[i] = 0.85 * float64(i+1) / float64(points)
	}
	par := units.Default()
	tiers := mcsim.TierNames()
	series := make([]plot.Series, 0, len(ContentionOrgs)*len(TopologyConfigs)*len(tiers))
	for range ContentionOrgs {
		for range TopologyConfigs {
			for range tiers {
				series = append(series, plot.Series{X: fracs, Y: make([]float64, points)})
			}
		}
	}
	for i, label := range contentionLabels() {
		series[i].Label = label
	}

	// Contention shares converge much faster than mean latency; cap the
	// measurement phase so paper-scale pipelines don't spend their wall
	// time deep in saturation (see contentionMeasureCap).
	rc := r
	if rc.Scale.Measure > contentionMeasureCap {
		f := float64(contentionMeasureCap) / float64(rc.Scale.Measure)
		rc.Scale.Warmup = int(float64(rc.Scale.Warmup) * f)
		rc.Scale.Measure = contentionMeasureCap
		rc.Scale.Drain = int(float64(rc.Scale.Drain) * f)
	}

	for oi, orgName := range ContentionOrgs {
		org, err := system.ParseOrganization(orgName)
		if err != nil {
			return nil, err
		}
		// Per-topology models, as in TopologyCompareStudy: the model is
		// route-distribution-indexed, so each interconnect gets its own
		// saturation point and bottleneck rendering.
		type topoModel struct {
			sat        float64
			bottleneck string
		}
		models := make([]topoModel, len(TopologyConfigs))
		topoAxis := make([]string, len(TopologyConfigs))
		minSat := math.Inf(1)
		for ci, c := range TopologyConfigs {
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
			g, err := newModelGrid(sys, par, rc.Options)
			if err != nil {
				return nil, err
			}
			sat := g.SaturationPoint(1e-6, 1, 1e-3)
			if math.IsInf(sat, 1) {
				return nil, fmt.Errorf("experiments: no saturation point for %s %s", orgName, c.Label)
			}
			bottleneck, err := saturatedBottleneck(g, sat*1.02)
			if err != nil {
				return nil, fmt.Errorf("experiments: contention %s %s: %w", orgName, c.Label, err)
			}
			models[ci] = topoModel{sat: sat, bottleneck: bottleneck}
			if sat < minSat {
				minSat = sat
			}
		}
		xs := make([]float64, points)
		for i, f := range fracs {
			xs[i] = f * minSat
		}
		spec := rc.simSpec("contention-"+orgName, org, par, xs)
		spec.Topologies = topoAxis
		spec.Telemetry = true
		results, err := rc.runSweep(spec)
		if err != nil {
			return nil, err
		}

		// Average each tier's blocking share over replications, then check
		// the highest-load bottleneck per topology against the model's.
		type cell struct {
			frac [len(tiers)]float64
			n    int
		}
		cells := make(map[[2]int]*cell)
		for _, res := range results {
			t := res.Telemetry
			if t == nil {
				return nil, fmt.Errorf("experiments: contention job %s came back without telemetry", res.Job.Key()[:12])
			}
			k := [2]int{res.Job.TopoIndex, res.Job.LoadIndex}
			c := cells[k]
			if c == nil {
				c = &cell{}
				cells[k] = c
			}
			for ti, name := range tiers {
				if ts := t.TierByName(name); ts != nil {
					c.frac[ti] += ts.BlockingFraction
				}
			}
			c.n++
		}
		for k, c := range cells {
			for ti := range tiers {
				si := (oi*len(TopologyConfigs)+k[0])*len(tiers) + ti
				series[si].Y[k[1]] = c.frac[ti] / float64(c.n)
			}
		}
		for ci, c := range TopologyConfigs {
			top := cells[[2]int{ci, points - 1}]
			if top == nil || top.n == 0 {
				return nil, fmt.Errorf("experiments: contention %s %s produced no high-load results", orgName, c.Label)
			}
			best, bestV := "", math.Inf(-1)
			for ti, name := range tiers {
				if v := top.frac[ti] / float64(top.n); v > bestV {
					best, bestV = name, v
				}
			}
			allowed := BottleneckTiers(models[ci].bottleneck)
			if allowed == nil {
				return nil, fmt.Errorf("experiments: unrecognized analytic bottleneck %q for %s %s",
					models[ci].bottleneck, orgName, c.Label)
			}
			ok := false
			for _, name := range allowed {
				if name == best {
					ok = true
					break
				}
			}
			if !ok {
				return nil, fmt.Errorf(
					"experiments: contention gate: %s %s observed bottleneck tier %q (share %.3f) not among %v predicted by analytic bottleneck %q",
					orgName, c.Label, best, bestV, allowed, models[ci].bottleneck)
			}
		}
	}
	return series, nil
}

// saturatedBottleneck evaluates the model at a load past its saturation
// point and returns the component the model names as the first to saturate.
// A load the model still finds stable has no bottleneck and is an error, as
// is any evaluation failure other than saturation.
func saturatedBottleneck(g *analytic.Grid, lambda float64) (string, error) {
	res, err := g.Evaluate(lambda)
	if err == nil {
		return "", fmt.Errorf("model not saturated at λ=%g, no bottleneck to compare", lambda)
	}
	if !errors.Is(err, analytic.ErrSaturated) {
		return "", err
	}
	return res.Bottleneck, nil
}
