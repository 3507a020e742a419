// Command mcexp regenerates the paper's evaluation artifacts: Table 1, the
// four panels of Figures 3 and 4, the interpretation and routing ablations,
// and the traffic-pattern, rate-, workload- and link-heterogeneity
// extensions. The set of runnable experiments is the experiment manifest
// (internal/experiments.Manifest) — the same enumeration cmd/mcrepro and
// the CI fidelity gate consume, so the CLIs can never drift.
//
// Usage:
//
//	mcexp -list                      # show every experiment
//	mcexp -exp figs                  # Table 1 + all four figure panels
//	mcexp -exp fig3m32 -scale quick  # one panel, ~10× cheaper simulation
//	mcexp -exp all -out results/     # everything + CSV files
//
// Each figure prints as an ASCII panel (analysis and simulation curves for
// Lm=256 and Lm=512); every gated entry adds the steady-state accuracy of
// each analysis/simulation pair. CSVs land in the -out directory for
// external plotting.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mcnet/internal/experiments"
	"mcnet/internal/plot"
	"mcnet/internal/sweep"
)

func main() {
	var (
		exp     = flag.String("exp", "figs", "experiment name from the manifest (see -list), or a group: figs|all")
		scale   = flag.String("scale", "paper", "simulation scale: paper|quick")
		out     = flag.String("out", "", "directory for CSV output (optional)")
		points  = flag.Int("points", 0, "operating points per curve (0 = per-experiment default)")
		reps    = flag.Int("reps", 1, "simulation replications per point")
		seed    = flag.Uint64("seed", 1, "base RNG seed")
		workers = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		cache   = flag.String("cache", "", "directory for cross-run simulation caching (optional)")
		width   = flag.Int("width", 72, "chart width")
		height  = flag.Int("height", 18, "chart height")
		list    = flag.Bool("list", false, "print the experiment manifest and exit")
	)
	flag.Parse()

	if *list {
		fmt.Printf("%-18s %-7s %s\n", "NAME", "KIND", "TITLE")
		for _, e := range experiments.Manifest() {
			fmt.Printf("%-18s %-7s %s\n", e.Name, string(e.Kind), e.Title)
		}
		fmt.Println("\ngroups: figs (Table 1 + the four figure panels), all (everything but the validation sweep)")
		return
	}

	var sc experiments.Scale
	switch *scale {
	case "paper":
		sc = experiments.PaperScale()
	case "quick":
		sc = experiments.QuickScale()
	default:
		fatalf("unknown -scale %q", *scale)
	}
	sc.Seed = *seed
	sc.Reps = *reps
	runner := experiments.NewRunner(sc)
	runner.Workers = *workers
	if *cache != "" {
		c, err := sweep.NewDirCache(*cache)
		if err != nil {
			fatalf("opening -cache: %v", err)
		}
		runner.Cache = c
	}

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatalf("creating -out: %v", err)
		}
	}

	for _, e := range selectEntries(*exp) {
		pts := e.Points(*points)
		start := time.Now()
		switch {
		case e.Figure != nil:
			fig, err := e.Figure(runner, pts)
			if err != nil {
				fatalf("%s: %v", e.Name, err)
			}
			fmt.Println(fig.Render(*width, *height))
			printAgreement(e, fig.Series())
			fmt.Printf("(%s, %v)\n\n", *scale, time.Since(start).Round(time.Second))
			writeCSV(*out, e.Name, fig.Series())
		case e.Report != nil:
			text, err := e.Report(runner, pts)
			if err != nil {
				fatalf("%s: %v", e.Name, err)
			}
			fmt.Println(text)
		case e.Series != nil:
			series, err := e.Series(runner, pts)
			if err != nil {
				fatalf("%s: %v", e.Name, err)
			}
			fmt.Println(plot.ASCII(e.Title, series, *width, *height, plot.AutoCap(series)))
			printAgreement(e, series)
			fmt.Printf("(%s, %v)\n\n", *scale, time.Since(start).Round(time.Second))
			writeCSV(*out, e.Name, series)
		}
	}
}

// selectEntries expands an -exp value into manifest entries: a group name
// or a single experiment (dash-insensitive, so the older fig3m32 spelling
// still works).
func selectEntries(exp string) []experiments.Entry {
	switch exp {
	case "all":
		// Everything except the validation sweep, which is a slow
		// paper-scale diagnostic requested explicitly.
		var out []experiments.Entry
		for _, e := range experiments.Manifest() {
			if e.Name != "validate" {
				out = append(out, e)
			}
		}
		return out
	case "figs":
		var out []experiments.Entry
		for _, name := range []string{"table1", "fig3-m32", "fig3-m64", "fig4-m32", "fig4-m64"} {
			e, ok := experiments.Lookup(name)
			if !ok {
				fatalf("manifest is missing %q", name)
			}
			out = append(out, e)
		}
		return out
	default:
		e, ok := experiments.Lookup(exp)
		if !ok {
			fatalf("unknown -exp %q; valid: figs, all, %s", exp, strings.Join(experiments.ManifestNames(), ", "))
		}
		return []experiments.Entry{e}
	}
}

// printAgreement prints the fidelity gate's steady-state agreement for each
// of a gated entry's pairs (see experiments.Agree).
func printAgreement(e experiments.Entry, series []plot.Series) {
	if !e.Gated {
		return
	}
	for _, pa := range experiments.AgreeAll(e, series, 0) {
		fmt.Printf("steady-state mean |analysis−simulation|/simulation = %.1f%%   (%s vs %s, %d points)\n",
			100*float64(pa.MeanRelErr), pa.Analysis, pa.Simulation, pa.Points)
	}
}

func writeCSV(dir, name string, series []plot.Series) {
	if dir == "" {
		return
	}
	path := filepath.Join(dir, name+".csv")
	f, err := os.Create(path)
	if err != nil {
		fatalf("writing %s: %v", path, err)
	}
	defer f.Close()
	if err := plot.CSV(f, series); err != nil {
		fatalf("writing %s: %v", path, err)
	}
	fmt.Printf("wrote %s\n", path)
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "mcexp: "+format+"\n", args...)
	os.Exit(1)
}
