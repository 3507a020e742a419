package validate

import (
	"math"
	"strings"
	"testing"

	"mcnet/internal/system"
	"mcnet/internal/units"
)

func testConfig() Config {
	return Config{
		Org: system.Organization{
			Name:  "validate-test",
			Ports: 4,
			Specs: []system.ClusterSpec{
				{Count: 2, Levels: 1},
				{Count: 2, Levels: 2},
			},
		},
		Par:     units.Default(),
		Warmup:  500,
		Measure: 6000,
		Drain:   500,
		Seed:    5,
	}
}

func TestSweepSteadyStateAccuracy(t *testing.T) {
	rep, err := Sweep(testConfig(), 6, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 6 {
		t.Fatalf("points = %d, want 6", len(rep.Points))
	}
	if math.IsNaN(rep.SteadyStateMAPE) {
		t.Fatal("no steady-state points found")
	}
	if rep.SteadyStateMAPE > 0.20 {
		t.Errorf("steady-state MAPE = %.1f%%, want ≤ 20%%", 100*rep.SteadyStateMAPE)
	}
	if rep.MaxSteadyStateErr < rep.SteadyStateMAPE {
		t.Errorf("max error %v below mean %v", rep.MaxSteadyStateErr, rep.SteadyStateMAPE)
	}
	if rep.ZeroLoadAnalysis <= 0 {
		t.Errorf("zero-load analysis = %v", rep.ZeroLoadAnalysis)
	}
}

func TestSweepDetectsRegions(t *testing.T) {
	rep, err := Sweep(testConfig(), 8, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// Low points must be steady; whether the knee appears inside the grid
	// depends on the system, but region labels must be consistent.
	if !rep.Points[0].SteadyState {
		t.Error("lowest load not classified steady-state")
	}
	for _, p := range rep.Points {
		if p.SteadyState && p.AnalysisSaturated {
			t.Error("point both steady and model-saturated")
		}
	}
	if !math.IsNaN(rep.SimKnee) && rep.SimKnee > rep.ModelSaturation*1.01 {
		t.Errorf("knee %v beyond sampled range %v", rep.SimKnee, rep.ModelSaturation)
	}
}

func TestWithDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Warmup != 10000 || c.Measure != 100000 || c.Drain != 10000 {
		t.Errorf("paper defaults not applied: %+v", c)
	}
	if c.Seed == 0 {
		t.Error("zero seed kept")
	}
	if c.Opt.ChannelFactor == 0 {
		t.Error("zero options kept")
	}
	// Explicit values survive.
	c2 := Config{Warmup: 7, Measure: 8, Drain: 9, Seed: 3}.WithDefaults()
	if c2.Warmup != 7 || c2.Measure != 8 || c2.Drain != 9 || c2.Seed != 3 {
		t.Errorf("explicit values overwritten: %+v", c2)
	}
}

func TestSweepRejectsBadInput(t *testing.T) {
	if _, err := Sweep(testConfig(), 0, 1); err == nil {
		t.Error("zero points accepted")
	}
	bad := testConfig()
	bad.Org.Ports = 3
	if _, err := Sweep(bad, 3, 1); err == nil {
		t.Error("invalid organization accepted")
	}
}

// TestSweepReturnsSimulationError pins that a failing simulation surfaces
// from Sweep, naming the point's load, instead of scoring a zero latency.
func TestSweepReturnsSimulationError(t *testing.T) {
	bad := testConfig()
	bad.Warmup = -1 // the model accepts it; mcsim.Run rejects the phase counts
	_, err := Sweep(bad, 3, 1)
	if err == nil {
		t.Fatal("simulation error swallowed")
	}
	if !strings.Contains(err.Error(), "λ=") || !strings.Contains(err.Error(), "bad phase counts") {
		t.Errorf("error %q does not name the point's load and the cause", err)
	}
}

func TestPerClusterHeterogeneityAgreement(t *testing.T) {
	// The paper's subject: per-cluster latencies under size heterogeneity.
	// At modest load every cluster's model latency must track its simulated
	// latency, and the size ordering must agree between the two sides.
	cfg := testConfig()
	cfg.Measure = 12000
	rep, err := Sweep(cfg, 1, 0.001) // cheap way to get λ_sat
	if err != nil {
		t.Fatal(err)
	}
	lambda := 0.3 * rep.ModelSaturation
	rows, err := PerCluster(cfg, lambda)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 clusters", len(rows))
	}
	for _, r := range rows {
		if r.RelErr > 0.20 {
			t.Errorf("cluster %d (N_i=%d): per-cluster error %.1f%% (analysis %v, sim %v)",
				r.Cluster, r.Nodes, 100*r.RelErr, r.Analysis, r.Simulation)
		}
	}
	// Ordering: the small clusters (4 nodes) vs large (8 nodes) must sort
	// the same way in both columns.
	var smallA, smallS, largeA, largeS float64
	for _, r := range rows {
		if r.Nodes == 4 {
			smallA, smallS = r.Analysis, r.Simulation
		} else {
			largeA, largeS = r.Analysis, r.Simulation
		}
	}
	if (smallA < largeA) != (smallS < largeS) {
		t.Errorf("size ordering disagrees: analysis (%v vs %v), sim (%v vs %v)",
			smallA, largeA, smallS, largeS)
	}
}

func TestPerClusterRejectsSaturatedPoint(t *testing.T) {
	cfg := testConfig()
	if _, err := PerCluster(cfg, 1.0); err == nil {
		t.Error("saturated operating point accepted")
	}
}

func TestReportString(t *testing.T) {
	rep, err := Sweep(testConfig(), 4, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	out := rep.String()
	for _, frag := range []string{"lambda", "analysis", "simulation", "steady", "MAPE", "λ_sat"} {
		if !strings.Contains(out, frag) {
			t.Errorf("report missing %q:\n%s", frag, out)
		}
	}
}
