package analytic_test

import (
	"errors"
	"math"
	"testing"

	"mcnet/internal/analytic"
	"mcnet/internal/sweep"
	"mcnet/internal/system"
	"mcnet/internal/units"
)

// The equivalence suite pins the Grid's contract: batched evaluation is
// bit-identical to point-wise Model.Evaluate — every float of every Result,
// the saturation flags, the Bottleneck strings and the returned errors —
// across organizations, tier overrides, model presets and load grids. The
// grid's memoization must be invisible.

// bitsEqual compares floats as bit patterns, so NaN==NaN and +0 != -0: the
// grid must reproduce the exact bytes, not merely a numerically close value.
func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// requireSameResult fails the test unless the two Results are bit-identical.
func requireSameResult(t *testing.T, want, got analytic.Result) {
	t.Helper()
	if !bitsEqual(want.LambdaG, got.LambdaG) || !bitsEqual(want.MeanLatency, got.MeanLatency) {
		t.Fatalf("λ=%v: mean latency diverged: pointwise %x grid %x",
			want.LambdaG, want.MeanLatency, got.MeanLatency)
	}
	if want.Saturated != got.Saturated || want.Bottleneck != got.Bottleneck {
		t.Fatalf("λ=%v: saturation diverged: pointwise (%v, %q) grid (%v, %q)",
			want.LambdaG, want.Saturated, want.Bottleneck, got.Saturated, got.Bottleneck)
	}
	if len(want.PerCluster) != len(got.PerCluster) {
		t.Fatalf("λ=%v: per-cluster length %d vs %d", want.LambdaG, len(want.PerCluster), len(got.PerCluster))
	}
	for i := range want.PerCluster {
		w, g := want.PerCluster[i], got.PerCluster[i]
		fields := [][2]float64{
			{w.POut, g.POut},
			{w.WIntra, g.WIntra}, {w.SIntra, g.SIntra}, {w.RIntra, g.RIntra}, {w.TIntra, g.TIntra},
			{w.WInter, g.WInter}, {w.SInter, g.SInter}, {w.RInter, g.RInter}, {w.TInter, g.TInter},
			{w.WConc, g.WConc}, {w.Latency, g.Latency},
		}
		for fi, p := range fields {
			if !bitsEqual(p[0], p[1]) {
				t.Fatalf("λ=%v cluster %d field %d: pointwise %x grid %x",
					want.LambdaG, i, fi, p[0], p[1])
			}
		}
		if w.Saturated != g.Saturated {
			t.Fatalf("λ=%v cluster %d: saturated %v vs %v", want.LambdaG, i, w.Saturated, g.Saturated)
		}
	}
}

// buildModel assembles a model from spec strings the way the sweep layer
// does.
func buildModel(t testing.TB, orgSpec, links string, flits, flitBytes int, opt analytic.Options) *analytic.Model {
	t.Helper()
	org, err := system.ParseOrganization(orgSpec)
	if err != nil {
		t.Fatalf("org %q: %v", orgSpec, err)
	}
	sys, err := system.New(org)
	if err != nil {
		t.Fatalf("org %q: %v", orgSpec, err)
	}
	par := units.Default().WithMessage(flits, flitBytes)
	tiers, err := units.ParseTiers(links)
	if err != nil {
		t.Fatalf("links %q: %v", links, err)
	}
	par.Tiers = tiers
	m, err := analytic.New(sys, par, opt)
	if err != nil {
		t.Fatalf("model: %v", err)
	}
	return m
}

// checkEquivalence runs a λ grid point-wise and through one Grid and asserts
// bit-identity of results and errors. The same Grid instance serves the whole
// grid, so memo reuse across points (and its clearing between points) is
// exercised too.
func checkEquivalence(t *testing.T, m *analytic.Model, lambdas []float64) {
	t.Helper()
	g := analytic.NewGrid(m)
	for _, l := range lambdas {
		want, wantErr := m.Evaluate(l)
		got, gotErr := g.Evaluate(l)
		if (wantErr == nil) != (gotErr == nil) ||
			errors.Is(wantErr, analytic.ErrSaturated) != errors.Is(gotErr, analytic.ErrSaturated) {
			t.Fatalf("λ=%v: errors diverged: pointwise %v grid %v", l, wantErr, gotErr)
		}
		requireSameResult(t, want, got)
	}
	// EvalGrid is the one-shot wrapper over the same machinery.
	batch, _ := analytic.EvalGrid(m, lambdas)
	for i, l := range lambdas {
		want, _ := m.Evaluate(l)
		requireSameResult(t, want, batch[i])
	}
}

// loadGrid builds a λ grid reaching deliberately past the model's saturation
// point, so saturated results (and their Bottleneck strings) are compared
// too.
func loadGrid(m *analytic.Model, points int) []float64 {
	sat := m.SaturationPoint(1e-6, 1, 1e-3)
	if math.IsInf(sat, 1) {
		sat = 0.01
	}
	xs := make([]float64, 0, points+2)
	for i := 1; i <= points; i++ {
		xs = append(xs, 1.3*sat*float64(i)/float64(points))
	}
	// Edge points: zero load and exactly the bisected saturation estimate.
	return append(xs, 0, sat)
}

func TestGridEquivalence(t *testing.T) {
	type tc struct {
		name      string
		org       string
		links     string
		flits, lm int
		opt       analytic.Options
	}
	cases := []tc{
		{name: "org1-default", org: system.Format(system.Table1Org1()), flits: 32, lm: 256, opt: analytic.DefaultOptions()},
		{name: "mixed-m8-m64", org: "m=8:8x1,8x2,4x3", flits: 64, lm: 512, opt: analytic.DefaultOptions()},
		{name: "hetero-shapes", org: "m=4:2x1,2x2@2,1x3", flits: 32, lm: 256, opt: analytic.DefaultOptions()},
		{name: "per-cluster-links", org: "m=4:2x1@ecn1=0.04/0.02/0.004,2x2@2", flits: 32, lm: 256, opt: analytic.DefaultOptions()},
		{name: "tier-override", org: "m=4:2x1,2x2", links: "icn2=0.04/0.02/0.004+conc=0.04/0.02/0.004", flits: 32, lm: 256, opt: analytic.DefaultOptions()},
		{name: "paper-literal", org: system.Format(system.Table1Org2()), flits: 32, lm: 256, opt: analytic.PaperLiteralOptions()},
		{
			name: "exact-pairs-feedback", org: "m=4:4x2", flits: 32, lm: 256,
			opt: func() analytic.Options {
				o := analytic.DefaultOptions()
				o.ExactICN2Pairs = true
				o.ConcServiceFeedback = true
				return o
			}(),
		},
	}
	// The hetero-links builtin sweeps one org against several tier specs;
	// every combination joins the table.
	if spec, ok := sweep.Builtin("hetero-links"); ok {
		opts, err := sweep.ModelOptions(spec.Model)
		if err != nil {
			t.Fatalf("hetero-links model options: %v", err)
		}
		for _, org := range spec.Orgs {
			for _, links := range spec.Links {
				if links == "uniform" {
					links = ""
				}
				cases = append(cases, tc{
					name: "builtin-hetero-links/" + org + "/" + links,
					org:  org, links: links, flits: 32, lm: 256, opt: opts,
				})
			}
		}
	} else {
		t.Fatal("builtin hetero-links missing")
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := buildModel(t, c.org, c.links, c.flits, c.lm, c.opt)
			checkEquivalence(t, m, loadGrid(m, 9))
		})
	}
}

// TestGridEvaluateInvalid pins that the grid rejects invalid loads exactly
// like the model.
func TestGridEvaluateInvalid(t *testing.T) {
	m := buildModel(t, "m=4:2x1,2x2", "", 32, 256, analytic.DefaultOptions())
	g := analytic.NewGrid(m)
	for _, bad := range []float64{-1, math.NaN()} {
		if _, err := g.Evaluate(bad); err == nil {
			t.Fatalf("λ=%v: grid accepted an invalid load", bad)
		}
	}
	if _, err := analytic.EvalGrid(m, []float64{1e-5, -1}); err == nil {
		t.Fatal("EvalGrid swallowed the invalid-λ error")
	}
}

// TestGridSaturationPoint pins that the batched saturation search, and
// Model.SaturationPoint which runs through it, land on the identical point
// as the search over point-wise Model.Evaluate.
func TestGridSaturationPoint(t *testing.T) {
	for _, org := range []string{system.Format(system.Table1Org1()), "m=4:2x1@ecn1=0.04/0.02/0.004,2x2@2"} {
		m := buildModel(t, org, "", 32, 256, analytic.DefaultOptions())
		want := analytic.PointwiseSaturationPoint(m, 1e-6, 1, 1e-4)
		if got := analytic.NewGrid(m).SaturationPoint(1e-6, 1, 1e-4); !bitsEqual(want, got) {
			t.Fatalf("org %s: grid saturation point diverged: %x vs %x", org, want, got)
		}
		if got := m.SaturationPoint(1e-6, 1, 1e-4); !bitsEqual(want, got) {
			t.Fatalf("org %s: model saturation point diverged: %x vs %x", org, want, got)
		}
	}
}

// FuzzGridEquivalence drives the equivalence property over fuzzer-chosen
// organization shapes and load grids: whatever the topology, cluster mix and
// λ spacing, Grid.Evaluate must be bit-identical to Model.Evaluate.
func FuzzGridEquivalence(f *testing.F) {
	f.Add(uint8(4), uint8(1), uint8(2), uint8(2), uint8(2), float64(2e-4), uint8(6))
	f.Add(uint8(8), uint8(2), uint8(2), uint8(4), uint8(0), float64(1e-3), uint8(3))
	f.Add(uint8(2), uint8(3), uint8(1), uint8(1), uint8(7), float64(5e-5), uint8(9))
	f.Fuzz(func(t *testing.T, ports, lv1, lv2, cnt1, cnt2 uint8, lamTop float64, points uint8) {
		// Clamp to valid, small organizations: even ports ≥ 2, levels ≥ 1,
		// at least two clusters total.
		p := 2 + 2*int(ports%3) // 2, 4, 6
		l1, l2 := 1+int(lv1%3), 1+int(lv2%3)
		c1, c2 := 1+int(cnt1%3), int(cnt2%3)
		if c1+c2 < 2 {
			c1 = 2
		}
		org := system.Organization{
			Ports: p,
			Specs: []system.ClusterSpec{{Count: c1, Levels: l1}},
		}
		if c2 > 0 {
			org.Specs = append(org.Specs, system.ClusterSpec{Count: c2, Levels: l2, RateFactor: 2})
		}
		sys, err := system.New(org)
		if err != nil {
			t.Skip()
		}
		m, err := analytic.New(sys, units.Default(), analytic.DefaultOptions())
		if err != nil {
			t.Skip()
		}
		if math.IsNaN(lamTop) || lamTop <= 0 || lamTop > 1 {
			lamTop = 1e-4
		}
		n := 1 + int(points%8)
		lambdas := make([]float64, n)
		for i := range lambdas {
			lambdas[i] = lamTop * float64(i+1) / float64(n)
		}
		g := analytic.NewGrid(m)
		for _, l := range lambdas {
			want, wantErr := m.Evaluate(l)
			got, gotErr := g.Evaluate(l)
			if errors.Is(wantErr, analytic.ErrSaturated) != errors.Is(gotErr, analytic.ErrSaturated) {
				t.Fatalf("λ=%v: errors diverged: %v vs %v", l, wantErr, gotErr)
			}
			requireSameResult(t, want, got)
		}
	})
}
