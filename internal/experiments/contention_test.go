package experiments

import (
	"fmt"
	"math"
	"testing"

	"mcnet/internal/analytic"
	"mcnet/internal/system"
	"mcnet/internal/units"
)

func TestBottleneckTiers(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"concentrator(i=0,v=28)", []string{"conc", "ecn1"}},
		{"channel-chain(ICN1,i=1)", []string{"icn1"}},
		{"source-queue(ICN1,i=0)", []string{"icn1"}},
		{"channel-chain(E,i=0,v=1)", []string{"ecn1", "conc", "icn2"}},
		{"source-queue(E,i=2)", []string{"ecn1", "conc", "icn2"}},
		{"something-new(i=0)", nil},
		{"", nil},
	}
	for _, c := range cases {
		got := BottleneckTiers(c.in)
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("BottleneckTiers(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestSaturatedBottleneck checks the study's model probe: past the
// saturation point it names a bottleneck the tier map recognizes, and below
// it, where the model names none, it reports an error instead of an empty
// bottleneck.
func TestSaturatedBottleneck(t *testing.T) {
	org, err := system.ParseOrganization("org1")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := system.New(org)
	if err != nil {
		t.Fatal(err)
	}
	g, err := newModelGrid(sys, units.Default(), analytic.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sat := g.SaturationPoint(1e-6, 1, 1e-3)
	if math.IsInf(sat, 1) {
		t.Fatal("org1 has no saturation point")
	}
	b, err := saturatedBottleneck(g, sat*1.02)
	if err != nil || BottleneckTiers(b) == nil {
		t.Errorf("past saturation: bottleneck %q, err %v; want a recognized bottleneck", b, err)
	}
	if b, err := saturatedBottleneck(g, sat/2); err == nil {
		t.Errorf("below saturation: bottleneck %q with no error", b)
	}
	if _, err := saturatedBottleneck(g, math.NaN()); err == nil {
		t.Error("invalid load: no error")
	}
}

// TestContentionStudy runs the study end to end at quick scale and checks
// both the declared schema contract and the self-gate: the study only
// returns without error when the observed bottleneck tier matches the
// analytic prediction for every organization × topology.
func TestContentionStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("runs near-saturation simulations")
	}
	e, ok := Lookup("contention")
	if !ok {
		t.Fatal("manifest is missing the contention entry")
	}
	r := NewRunner(QuickScale())
	series, err := e.Series(r, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != len(e.SeriesLabels) {
		t.Fatalf("produced %d series, schema declares %d", len(series), len(e.SeriesLabels))
	}
	for i, s := range series {
		if s.Label != e.SeriesLabels[i] {
			t.Errorf("series %d label %q, schema declares %q", i, s.Label, e.SeriesLabels[i])
		}
		if len(s.X) != 2 || len(s.Y) != 2 {
			t.Errorf("%s: series has %d/%d points, want 2/2", s.Label, len(s.X), len(s.Y))
		}
	}
	// Blocking shares within one (org, topology) sum to ~1 at each load
	// (every delivered worm's blocking time lands in exactly one tier).
	tiers := 4
	for g := 0; g < len(series)/tiers; g++ {
		for p := 0; p < 2; p++ {
			sum := 0.0
			for ti := 0; ti < tiers; ti++ {
				sum += series[g*tiers+ti].Y[p]
			}
			if sum < 0.99 || sum > 1.01 {
				t.Errorf("group %d (%s) point %d: blocking shares sum to %v, want 1",
					g, series[g*tiers].Label, p, sum)
			}
		}
	}
}
