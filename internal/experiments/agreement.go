package experiments

import (
	"fmt"
	"math"

	"mcnet/internal/plot"
	"mcnet/internal/sweep"
)

// PairAgreement is the model-vs-simulation agreement of one analysis/
// simulation series pair, the unit the fidelity gate judges. The metric is
// restricted to the steady-state region — the only region the paper claims
// accuracy for: a grid point is usable when both values are finite, the
// simulated latency is positive and it is below 3× the pair's low-load
// analysis baseline. Floats serialize NaN as null (see sweep.Float).
type PairAgreement struct {
	Analysis   string `json:"analysis"`
	Simulation string `json:"simulation"`
	// Points is the number of steady-state grid points compared.
	Points int `json:"points"`
	// MeanRelErr and MaxRelErr summarize |analysis−simulation|/simulation
	// over those points.
	MeanRelErr sweep.Float `json:"mean_rel_err"`
	MaxRelErr  sweep.Float `json:"max_rel_err"`
	// AnalysisSatLambda is the first grid load where the model reports
	// saturation (null when the model is stable across the whole grid);
	// SimSatLambda is the first load where the simulated latency exceeds 3×
	// the low-load baseline (null when the simulation never leaves the
	// steady-state region). SatDelta is their relative difference.
	AnalysisSatLambda sweep.Float `json:"analysis_sat_lambda"`
	SimSatLambda      sweep.Float `json:"sim_sat_lambda"`
	SatDelta          sweep.Float `json:"sat_delta"`
	// Tolerance bounds MeanRelErr; Pass is the gate verdict for this pair.
	Tolerance float64 `json:"tolerance"`
	Pass      bool    `json:"pass"`
	// Reason explains a failure ("" when passing).
	Reason string `json:"reason,omitempty"`
}

// findSeries locates a series by exact label.
func findSeries(series []plot.Series, label string) (plot.Series, bool) {
	for _, s := range series {
		if s.Label == label {
			return s, true
		}
	}
	return plot.Series{}, false
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Agree computes the agreement of one declared pair over a study's series.
// tol overrides the comparison tolerance when positive.
func Agree(series []plot.Series, pair Pair, tol float64) PairAgreement {
	pa := PairAgreement{
		Analysis: pair.Analysis, Simulation: pair.Simulation, Tolerance: tol,
		MeanRelErr:        sweep.Float(math.NaN()),
		MaxRelErr:         sweep.Float(math.NaN()),
		AnalysisSatLambda: sweep.Float(math.NaN()),
		SimSatLambda:      sweep.Float(math.NaN()),
		SatDelta:          sweep.Float(math.NaN()),
	}
	an, ok := findSeries(series, pair.Analysis)
	if !ok {
		pa.Reason = fmt.Sprintf("analysis series %q missing", pair.Analysis)
		return pa
	}
	sim, ok := findSeries(series, pair.Simulation)
	if !ok {
		pa.Reason = fmt.Sprintf("simulation series %q missing", pair.Simulation)
		return pa
	}
	n := len(an.Y)
	if len(sim.Y) < n {
		n = len(sim.Y)
	}
	// The low-load baseline anchoring the steady-state region: the model's
	// first finite value on the grid.
	baseline := math.NaN()
	for i := 0; i < n; i++ {
		if finite(an.Y[i]) {
			baseline = an.Y[i]
			break
		}
	}
	if math.IsNaN(baseline) {
		pa.Reason = "analysis series has no finite values"
		return pa
	}

	var sum, maxErr float64
	for i := 0; i < n; i++ {
		a, s := an.Y[i], sim.Y[i]
		if math.IsNaN(float64(pa.AnalysisSatLambda)) && !finite(a) && i < len(an.X) {
			pa.AnalysisSatLambda = sweep.Float(an.X[i])
		}
		if math.IsNaN(float64(pa.SimSatLambda)) && finite(s) && s > 3*baseline && i < len(sim.X) {
			pa.SimSatLambda = sweep.Float(sim.X[i])
		}
		if !finite(a) || !finite(s) || s <= 0 || s > 3*baseline {
			continue
		}
		rel := math.Abs(a-s) / s
		sum += rel
		if rel > maxErr {
			maxErr = rel
		}
		pa.Points++
	}
	if aSat, sSat := float64(pa.AnalysisSatLambda), float64(pa.SimSatLambda); finite(aSat) && finite(sSat) && sSat > 0 {
		pa.SatDelta = sweep.Float(math.Abs(aSat-sSat) / sSat)
	}
	if pa.Points == 0 {
		pa.Reason = "no steady-state points to compare"
		return pa
	}
	pa.MeanRelErr = sweep.Float(sum / float64(pa.Points))
	pa.MaxRelErr = sweep.Float(maxErr)
	if float64(pa.MeanRelErr) <= tol {
		pa.Pass = true
	} else {
		pa.Reason = fmt.Sprintf("mean relative error %.1f%% exceeds tolerance %.1f%%",
			100*float64(pa.MeanRelErr), 100*tol)
	}
	return pa
}

// AgreeAll evaluates every declared pair of a gated entry. tolOverride,
// when positive, replaces the entry's own tolerance.
func AgreeAll(e Entry, series []plot.Series, tolOverride float64) []PairAgreement {
	tol := e.Tolerance
	if tolOverride > 0 {
		tol = tolOverride
	}
	if tol <= 0 {
		tol = DefaultTolerance
	}
	out := make([]PairAgreement, len(e.Pairs))
	for i, p := range e.Pairs {
		out[i] = Agree(series, p, tol)
	}
	return out
}
