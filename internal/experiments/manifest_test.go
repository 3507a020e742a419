package experiments

import (
	"strings"
	"testing"
)

func TestManifestDeclaredSchemas(t *testing.T) {
	entries := Manifest()
	if len(entries) < 10 {
		t.Fatalf("manifest has %d entries, expected the full study set", len(entries))
	}
	seen := map[string]bool{}
	for _, e := range entries {
		if e.Name == "" || e.Title == "" || e.Kind == "" {
			t.Errorf("entry %+v is missing name/title/kind", e)
		}
		if seen[e.Name] {
			t.Errorf("duplicate manifest name %q", e.Name)
		}
		seen[e.Name] = true

		switch e.Kind {
		case KindReport:
			if e.Report == nil {
				t.Errorf("%s: report entry without Report func", e.Name)
			}
			if len(e.SeriesLabels) != 0 || len(e.Pairs) != 0 {
				t.Errorf("%s: report entry declares series schema", e.Name)
			}
		case KindFigure, KindStudy:
			if e.Series == nil {
				t.Errorf("%s: %s entry without Series func", e.Name, e.Kind)
			}
			if len(e.SeriesLabels) == 0 {
				t.Errorf("%s: no declared series labels", e.Name)
			}
		default:
			t.Errorf("%s: unknown kind %q", e.Name, e.Kind)
		}

		if e.Gated && len(e.Pairs) == 0 {
			t.Errorf("%s: gated without agreement pairs", e.Name)
		}
		if e.Gated && e.Tolerance <= 0 {
			t.Errorf("%s: gated without a tolerance", e.Name)
		}

		// Every gated pair must reference declared series labels, otherwise
		// the fidelity gate compares against series that never exist.
		labels := map[string]bool{}
		for _, l := range e.SeriesLabels {
			labels[l] = true
		}
		for _, p := range e.Pairs {
			if !labels[p.Analysis] {
				t.Errorf("%s: pair analysis label %q not in declared schema %v", e.Name, p.Analysis, e.SeriesLabels)
			}
			if !labels[p.Simulation] {
				t.Errorf("%s: pair simulation label %q not in declared schema %v", e.Name, p.Simulation, e.SeriesLabels)
			}
		}
	}
	// The CI subset must be non-empty and include the figure panels.
	smalls := 0
	for _, e := range entries {
		if e.Small {
			smalls++
		}
	}
	if smalls == 0 {
		t.Error("no manifest entry is marked Small; the CI gate would run nothing")
	}
}

func TestLookupAliases(t *testing.T) {
	for alias, want := range map[string]string{
		"fig3m32":  "fig3-m32", // older mcexp spelling
		"fig4-m64": "fig4-m64",
		"table1":   "table1",
	} {
		e, ok := Lookup(alias)
		if !ok || e.Name != want {
			t.Errorf("Lookup(%q) = %q, %t; want %q", alias, e.Name, ok, want)
		}
	}
	if _, ok := Lookup("no-such-study"); ok {
		t.Error("Lookup of an unknown name succeeded")
	}
}

// TestManifestLabelsMatchProducedSeries runs the cheapest gated studies at
// a tiny scale and checks that the series labels the manifest declares are
// exactly the labels the study produces — the contract the fidelity gate
// and the CSV schema validator both depend on.
func TestManifestLabelsMatchProducedSeries(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	sc := QuickScale()
	sc.Warmup, sc.Measure, sc.Drain = 50, 200, 50
	r := NewRunner(sc)
	for _, name := range []string{"rate-hetero", "ablation-routing", "validate"} {
		e, ok := Lookup(name)
		if !ok {
			t.Fatalf("manifest is missing %s", name)
		}
		series, err := e.Series(r, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(series) != len(e.SeriesLabels) {
			t.Fatalf("%s: produced %d series, schema declares %d", name, len(series), len(e.SeriesLabels))
		}
		for i, s := range series {
			if s.Label != e.SeriesLabels[i] {
				t.Errorf("%s: series %d label %q, schema declares %q", name, i, s.Label, e.SeriesLabels[i])
			}
		}
	}
}

// TestValidateEntryRejectsBadScale pins that the validation sweep returns
// a bad measurement scale as an error instead of scoring a study that
// never ran.
func TestValidateEntryRejectsBadScale(t *testing.T) {
	e, ok := Lookup("validate")
	if !ok {
		t.Fatal("manifest is missing validate")
	}
	sc := QuickScale()
	sc.Warmup = -1
	_, err := e.Series(NewRunner(sc), 3)
	if err == nil || !strings.Contains(err.Error(), "negative warmup") {
		t.Errorf("error = %v, want the spec's negative-warmup rejection", err)
	}
}

func TestPointsResolution(t *testing.T) {
	e := Entry{DefaultPoints: 7}
	if got := e.Points(0); got != 7 {
		t.Errorf("Points(0) = %d, want 7", got)
	}
	if got := e.Points(3); got != 3 {
		t.Errorf("Points(3) = %d, want 3", got)
	}
	if got := (Entry{}).Points(0); got != 10 {
		t.Errorf("zero entry Points(0) = %d, want 10", got)
	}
}
