package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"mcnet/internal/experiments"
	"mcnet/internal/repro"
	"mcnet/internal/sweep"
)

// minReproRuns is the fewest pipeline runs a window makes: the gated
// median needs a few, and from three runs on the percentile rule grants
// repro_study_tail_s its p75.
const minReproRuns = 3

// reproSmall runs the CI reproduction pipeline, repro.Run{Small: true},
// closed loop into a fresh run tree each time. The pipeline's fidelity gate
// is defined at its default seed, so every run uses it: the workload has no
// seeded input.
func reproSmall(r *run) error {
	// Set-up: the run root, and a warm-up pipeline run of three cheap
	// studies (a report, the analytic saturation search and one small
	// simulated study), so lazily built state is in place before timing.
	n := 0
	root, setupCPU, setupWall, err := setupMedian(setupReps, func() (string, error) {
		n++
		root := filepath.Join(r.dir, fmt.Sprintf("root%d", n))
		if err := os.MkdirAll(root, 0o755); err != nil {
			return "", err
		}
		_, _, err := repro.Run(repro.Config{Root: root, Stamp: "warm", Small: true, Only: []string{"table1", "saturation", "rate-hetero"}})
		return root, err
	}, os.RemoveAll)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	r.reportSetup(setupCPU, setupWall)

	var walls, cpus []float64
	var delivered, wall float64
	studies := map[string][]float64{}
	var studySecs []float64 // every study of every run
	var executed []float64
	start := time.Now()
	// Start another run only while it is expected to end within the window,
	// but make at least minReproRuns.
	for i := 0; i < minReproRuns || time.Since(start)+time.Duration(median(walls)*float64(time.Second)) <= r.window; i++ {
		id := r.tr.begin("repro.Run", 0)
		t0 := time.Now()
		c0 := cpuSeconds()
		rep, dir, err := repro.Run(repro.Config{
			Root: root, Stamp: fmt.Sprintf("run%d", i), Small: true, Workers: runtime.NumCPU(),
		})
		secs := time.Since(t0).Seconds()
		cpus = append(cpus, cpuSeconds()-c0)
		r.tr.end(id)
		r.attempted++
		if err != nil {
			return fmt.Errorf("repro.Run: %w", err)
		}
		walls = append(walls, secs)
		wall += secs

		ok := rep.Verdict == "pass"
		r.check(ok, "repro run %d: verdict %s: %s", i, rep.Verdict, strings.Join(rep.Failures, "; "))
		if _, err := os.Stat(filepath.Join(dir, filepath.FromSlash(repro.ReportFile))); err != nil {
			ok = false
			r.check(false, "repro run %d: no report.json: %v", i, err)
		}
		if !ok {
			r.failed++
		}
		msgs, jobs, err := cachedDelivered(filepath.Join(dir, "cache"))
		if err != nil {
			return err
		}
		delivered += msgs
		executed = append(executed, float64(jobs))
		for _, s := range rep.Studies {
			studies[s.Name] = append(studies[s.Name], s.Seconds)
			studySecs = append(studySecs, s.Seconds)
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}

	// A window holds too few pipeline runs for a tail of their wall times,
	// so the tail is read from the per-study times of report.json, pooled
	// over the runs. The percentile is capped at p75, the highest the rule
	// grants from minReproRuns runs on, so it does not move with the run
	// count.
	p50 := median(walls)
	tail := percentile(studySecs, tailPercentile(len(studySecs), 7500))
	r.endToEnd("cpu_ms_per_op", median(cpus)*1e3, "ms")
	r.named("repro_wall_s", p50, "s")
	r.named("repro_study_tail_s", tail, "s")
	r.named("repro_runs", float64(len(walls)), "count")
	r.named("sim_msgs_per_s", delivered/wall, "msg/s")

	if r.tr != nil {
		for _, e := range experiments.Manifest() {
			if e.Small {
				r.layer("repro."+e.Name+"_s", median(studies[e.Name]), "s")
			}
		}
		r.layer("sweep.jobs_executed", median(executed), "count")
	}
	return nil
}

// cachedDelivered sums the measured messages delivered over a run tree's
// cached simulation outcomes: one file per executed simulation.
func cachedDelivered(dir string) (msgs float64, jobs int, err error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return 0, 0, err
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return 0, 0, err
		}
		var o sweep.Outcome
		if err := json.Unmarshal(b, &o); err != nil {
			return 0, 0, fmt.Errorf("%s: %w", f, err)
		}
		msgs += float64(o.Delivered)
	}
	return msgs, len(files), nil
}
