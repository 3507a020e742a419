// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload in-process against the public functions of internal/repro,
// internal/serve, internal/mcsim, internal/system, internal/topo and
// internal/analytic, checks that their outputs are correct, and prints its
// metrics. The last line of standard output is the result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1 the
// same workload runs traced and the metrics are the per-layer ones. See
// README.md for the workloads, the metrics and why each exists.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"repro-small":  reproSmall,
	"analyze-open": analyzeOpen,
	"serve-mixed":  serveMixed,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     uint64
	window   time.Duration // measured time, --seconds
	dir      string        // scratch directory, removed at exit
	tr       *tracer       // nil in an untraced run

	attempted, failed int
	failures          []string          // correctness checks that failed
	e2e               map[string]metric // gated end-to-end metrics
	detail            map[string]metric // the workload's own named metrics
	layers            map[string]metric // per-layer metrics (traced run)
}

func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *run) endToEnd(name string, v float64, unit string) { r.e2e[name] = metric{v, unit} }
func (r *run) named(name string, v float64, unit string)    { r.detail[name] = metric{v, unit} }
func (r *run) layer(name string, v float64, unit string)    { r.layers[name] = metric{v, unit} }

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var (
		name    = flag.String("workload", "", "workload: repro-small, analyze-open or serve-mixed")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 35, "measured seconds")
		trace   = flag.Int("trace", 0, "1 runs the workload traced and reports per-layer metrics")
		dir     = flag.String("dir", ".bench_build/perfbench.d", "directory for scratch files and traces")
		spec    = flag.String("spec", "BENCHMARK.json", "benchmark definition listing the metric names")
	)
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload {repro-small|analyze-open|serve-mixed} --seed N --seconds S --trace {0|1}\n")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	r := &run{
		workload: *name, seed: *seed, window: time.Duration(*seconds) * time.Second,
		e2e: map[string]metric{}, detail: map[string]metric{}, layers: map[string]metric{},
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	var err error
	if r.dir, err = os.MkdirTemp(*dir, "run-"); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(r.dir)

	fp := fingerprint(r)
	if err := printJSON(map[string]any{"fingerprint": fp}); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}

	steal0, total0 := cpuTicks()
	cpu0 := cpuSeconds()
	var prof bytes.Buffer
	if *trace == 1 {
		r.tr = newTracer()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: cpu profile: %v\n", err)
			return 1
		}
	}
	err = fn(r)
	if r.tr != nil {
		pprof.StopCPUProfile()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		return 1
	}
	workCPU := cpuSeconds() - cpu0
	if steal1, total1 := cpuTicks(); total1 > total0 {
		// CPU time the hypervisor gave other tenants while this run wanted it:
		// a run with a large share measured the host as much as the program.
		r.named("host_steal_share", float64(steal1-steal0)/float64(total1-total0), "ratio")
	}
	if _, ok := r.e2e["peak_rss_mb"]; !ok {
		r.endToEnd("peak_rss_mb", peakRSSMB(), "MB")
	}
	r.named("peak_rss_mb", r.e2e["peak_rss_mb"].Value, "MB")

	metrics := r.e2e
	if r.tr != nil {
		if err := finishTrace(r, prof.Bytes(), workCPU, fp, *dir); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
			return 1
		}
		metrics = r.layers
	}

	if err := conform(metrics, *spec, r.tr != nil); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, f := range r.failures {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", f)
	}
	err = printJSON(map[string]any{"workload": r.workload, "seed": r.seed, "traced": r.tr != nil, "named_metrics": r.detail})
	if err == nil {
		err = printJSON(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{len(r.failures) == 0, r.attempted, r.failed, metrics})
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if len(r.failures) > 0 {
		return 1
	}
	return 0
}

// printJSON writes v as one line of standard output.
func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

// finishTrace folds the CPU profile into the cpu.* shares, reports the
// tracing overhead and writes the spans.
func finishTrace(r *run, prof []byte, workCPU float64, fp map[string]any, dir string) error {
	shares, samples, err := foldProfile(prof)
	if err != nil {
		return err
	}
	for _, l := range cpuLayers {
		r.layer("cpu."+l, shares[l], "share")
	}
	r.named("cpu.samples", float64(samples), "count")

	// Overhead: the tracer's share of the workload's CPU time, from the
	// cost of one begin/end pair, timed here in the same process, times the
	// spans the workload recorded. Comparing the traced.* figures with an
	// untraced run of the same seed also includes the CPU profiler, but
	// host noise between two processes swamps an overhead of this size.
	const pairs = 200000
	t := newTracer()
	start := time.Now()
	for i := 0; i < pairs; i++ {
		t.end(t.begin("overhead", 0))
	}
	pairSecs := time.Since(start).Seconds() / pairs
	spans := r.tr.count()
	r.layer("trace.overhead", pairSecs*float64(spans)/math.Max(workCPU, 1e-3), "ratio")
	r.named("trace.spans", float64(spans), "count")
	r.named("trace.pair_ns", pairSecs*1e9, "ns")
	for k, v := range r.e2e {
		r.named("traced."+k, v.Value, v.Unit)
	}

	if err := probeLayers(r); err != nil {
		return err
	}
	path := filepath.Join(dir, "trace-"+r.workload+".json")
	return r.tr.write(path, map[string]any{"fingerprint": fp, "layers": r.layers})
}

// conform checks the metrics against the names BENCHMARK.json declares,
// end-to-end or per-layer. A per-layer metric of a layer the workload does
// not reach reads 0 (no calls); any other difference is an error.
func conform(metrics map[string]metric, path string, traced bool) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var def struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	want := def.EndToEnd
	if traced {
		want = def.PerLayer
	}
	declared := map[string]bool{}
	for _, m := range want {
		declared[m.Name] = true
		got, ok := metrics[m.Name]
		switch {
		case !ok && traced:
			metrics[m.Name] = metric{0, m.Unit}
		case !ok:
			return fmt.Errorf("metric %s not measured", m.Name)
		case got.Unit != m.Unit:
			return fmt.Errorf("metric %s measured in %s, declared in %s", m.Name, got.Unit, m.Unit)
		}
	}
	for name := range metrics {
		if !declared[name] {
			return fmt.Errorf("metric %s is not declared in %s", name, path)
		}
	}
	return nil
}

// fingerprint identifies the host, toolchain and inputs of a result, so a
// comparison across hosts can be recognized as one.
func fingerprint(r *run) map[string]any {
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"workload":   r.workload,
		"seed":       r.seed,
		"seconds":    r.window.Seconds(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks returns the host's steal and total CPU ticks from /proc/stat, or
// zeros when it cannot be read.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] { // user … steal; guest time is inside user
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// cpuSeconds is the user and system CPU time the process has used. The
// gated times are CPU times, which leave out the time the process waited
// for a CPU; on a shared host that wait swings from run to run and moves
// every wall-clock figure with it (see README.md).
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// setupReps is how many times a workload sets up; setup_s is the median.
// One set-up takes about 0.15 s, and whole tenths of a second on a shared
// host can go to other tenants.
const setupReps = 7

// setupMedian runs setup n times, keeping the last result and tearing down
// the others. It returns the median process CPU time of one set-up, which
// is setup_s (see cpuSeconds), and the median wall time, which is printed.
func setupMedian[T any](n int, setup func() (T, error), teardown func(T) error) (v T, cpu, wall float64, err error) {
	var cpus, walls []float64
	for i := 0; i < n; i++ {
		start, c0 := time.Now(), cpuSeconds()
		v, err = setup()
		walls = append(walls, time.Since(start).Seconds())
		cpus = append(cpus, cpuSeconds()-c0)
		if err != nil {
			return v, 0, 0, err
		}
		if i == n-1 {
			return v, median(cpus), median(walls), nil
		}
		if err := teardown(v); err != nil {
			return v, 0, 0, err
		}
	}
	return v, 0, 0, nil
}

// reportSetup records the set-up figures of setupMedian.
func (r *run) reportSetup(cpu, wall float64) {
	r.endToEnd("setup_s", cpu, "s")
	r.named("setup_s", cpu, "s")
	r.named("setup_wall_s", wall, "s")
}
