package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mcnet/internal/obs"
	"mcnet/internal/sweep"
)

func TestRequestIDEchoedAndGenerated(t *testing.T) {
	s := newTestServer(t, Config{}, instantOutcome)

	r := httptest.NewRequest("GET", "/healthz", nil)
	r.Header.Set("X-Request-ID", "caller-supplied-7")
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if got := w.Header().Get("X-Request-ID"); got != "caller-supplied-7" {
		t.Errorf("valid caller id echoed as %q", got)
	}

	// No id supplied: the server mints one with the deterministic prefix.
	w = do(t, s, "GET", "/healthz", "")
	if got := w.Header().Get("X-Request-ID"); !strings.HasPrefix(got, obs.RequestIDPrefix) {
		t.Errorf("generated id = %q, want prefix %q", got, obs.RequestIDPrefix)
	}

	// A malformed id (header injection material) is replaced, not echoed.
	r = httptest.NewRequest("GET", "/healthz", nil)
	r.Header.Set("X-Request-ID", `bad "id" with spaces`)
	w2 := httptest.NewRecorder()
	s.Handler().ServeHTTP(w2, r)
	if got := w2.Header().Get("X-Request-ID"); !strings.HasPrefix(got, obs.RequestIDPrefix) {
		t.Errorf("malformed caller id came back as %q, want a generated one", got)
	}
}

func TestMetricsContentNegotiation(t *testing.T) {
	s := newTestServer(t, Config{}, instantOutcome)
	do(t, s, "GET", "/healthz", "")

	// Bare GET /metrics stays the JSON document (the compatibility surface).
	w := do(t, s, "GET", "/metrics", "")
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("GET /metrics Content-Type = %q, want application/json", ct)
	}

	// Accept: text/plain (what Prometheus sends) selects the exposition.
	r := httptest.NewRequest("GET", "/metrics", nil)
	r.Header.Set("Accept", "text/plain;version=0.0.4")
	w2 := httptest.NewRecorder()
	s.Handler().ServeHTTP(w2, r)
	if ct := w2.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("negotiated Content-Type = %q, want text/plain", ct)
	}
	if err := obs.LintExposition(w2.Body.Bytes()); err != nil {
		t.Errorf("negotiated exposition does not lint: %v", err)
	}
}

// TestPrometheusExpositionLintCleanUnderTraffic drives every route at least
// once, then holds the scrape to the lint contract and checks the family
// inventory.
func TestPrometheusExpositionLintCleanUnderTraffic(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2}, instantOutcome)
	do(t, s, "GET", "/healthz", "")
	do(t, s, "POST", "/v1/analyze", `{"org":"org1","lambda":0.0003}`)
	do(t, s, "POST", "/v1/analyze", `{"org":"org1","lambda":0.0003}`) // cache hit
	do(t, s, "POST", "/v1/analyze", `{"bad json`)                     // error counter
	w := do(t, s, "POST", "/v1/simulate", `{"org":"org1","lambda":0.0003,"measure":100}`)
	var ref jobRef
	if err := json.Unmarshal(w.Body.Bytes(), &ref); err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, ref.ID)
	do(t, s, "POST", "/v1/sweep", `{"orgs":["org1"],"loads":{"points":2},"measure":100}`)

	scrape := do(t, s, "GET", "/metrics/prometheus", "")
	if scrape.Code != http.StatusOK {
		t.Fatalf("scrape: %d %s", scrape.Code, scrape.Body)
	}
	doc := scrape.Body.Bytes()
	if err := obs.LintExposition(doc); err != nil {
		t.Fatalf("exposition does not lint: %v\n%s", err, doc)
	}
	for _, family := range []string{
		"mcserved_requests_total",
		"mcserved_request_errors_total",
		"mcserved_request_duration_seconds",
		"mcserved_outcome_cache_lookups_total",
		"mcserved_analyze_cache_lookups_total",
		"mcserved_jobs",
		"mcserved_queue_depth",
		"mcserved_queue_capacity",
		"mcserved_queue_workers",
		"mcserved_queue_workers_busy",
		"mcserved_simulations_executed_total",
		"mcserved_engine_jobs_started_total",
		"mcserved_engine_jobs_finished_total",
		"mcserved_engine_workers_busy",
		"mcserved_engine_job_duration_seconds",
		"mcserved_sweeps_active",
		"mcserved_sweeps_total",
	} {
		if !strings.Contains(string(doc), "# TYPE "+family+" ") {
			t.Errorf("family %s missing from the exposition", family)
		}
	}
	// Spot-check values the traffic above determined.
	if !strings.Contains(string(doc), `mcserved_analyze_cache_lookups_total{result="hit"} 1`) {
		t.Errorf("analyze cache hit not counted:\n%s", doc)
	}
	if !strings.Contains(string(doc), `mcserved_request_errors_total{route="POST /v1/analyze"} 1`) {
		t.Errorf("analyze error not counted:\n%s", doc)
	}
	if !strings.Contains(string(doc), `mcserved_sweeps_total 1`) {
		t.Errorf("sweep not counted:\n%s", doc)
	}
}

// TestMetricsScrapeRaceHammer scrapes both metrics formats concurrently
// with analyze and simulate traffic. Run under -race (CI does), it proves
// the sharded metrics path and the exposition renderer are data-race free;
// every scrape must also lint.
func TestMetricsScrapeRaceHammer(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2}, instantOutcome)
	const loops = 50
	var wg sync.WaitGroup
	errc := make(chan error, 4)
	wg.Add(4)
	go func() {
		defer wg.Done()
		for i := 0; i < loops; i++ {
			w := do(t, s, "GET", "/metrics/prometheus", "")
			if err := obs.LintExposition(w.Body.Bytes()); err != nil {
				errc <- fmt.Errorf("scrape %d does not lint: %v", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < loops; i++ {
			w := do(t, s, "GET", "/metrics", "")
			var doc metricsDoc
			if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
				errc <- fmt.Errorf("JSON scrape %d: %v", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < loops; i++ {
			do(t, s, "POST", "/v1/analyze", fmt.Sprintf(`{"org":"org1","lambda":%g}`, 1e-5+float64(i)*1e-7))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < loops; i++ {
			do(t, s, "POST", "/v1/simulate", fmt.Sprintf(`{"org":"org1","lambda":%g,"measure":100}`, 1e-5+float64(i)*1e-7))
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

func TestJobTimestampsAndWallTime(t *testing.T) {
	release := make(chan struct{})
	s := newTestServer(t, Config{Workers: 1}, func(j sweep.Job) (sweep.Outcome, error) {
		<-release
		return instantOutcome(j)
	})
	w := do(t, s, "POST", "/v1/simulate", `{"org":"org1","lambda":0.0003,"measure":100}`)
	var ref jobRef
	if err := json.Unmarshal(w.Body.Bytes(), &ref); err != nil {
		t.Fatal(err)
	}

	// While queued or running: created set, finished absent.
	var doc map[string]any
	if err := json.Unmarshal(do(t, s, "GET", "/v1/jobs/"+ref.ID, "").Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc["created"] == nil {
		t.Error("live job has no created timestamp")
	}
	if doc["finished"] != nil {
		t.Errorf("unfinished job reports finished = %v", doc["finished"])
	}
	close(release)
	final := waitDone(t, s, ref.ID)
	for _, key := range []string{"created", "started", "finished"} {
		v, ok := final[key].(string)
		if !ok {
			t.Fatalf("finished job missing %s: %v", key, final[key])
		}
		if _, err := time.Parse(time.RFC3339Nano, v); err != nil {
			t.Errorf("%s = %q is not RFC 3339: %v", key, v, err)
		}
	}
	if _, ok := final["wall_time_sec"].(float64); !ok {
		t.Errorf("finished job missing wall_time_sec: %v", final["wall_time_sec"])
	}
	if final["progress"] != nil {
		t.Errorf("finished job still carries progress: %v", final["progress"])
	}

	// The finished document is frozen: repeated reads stay byte-identical.
	a := do(t, s, "GET", "/v1/jobs/"+ref.ID, "").Body.String()
	b := do(t, s, "GET", "/v1/jobs/"+ref.ID, "").Body.String()
	if a != b {
		t.Errorf("finished job doc changed between reads:\n%s\n%s", a, b)
	}
}

// TestRunningJobReportsProgress holds a job mid-execution with a live
// progress probe registered under its key — the shape the real execution
// path (outcome → sweep.Execute) produces — and checks the running
// document surfaces it.
func TestRunningJobReportsProgress(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	s := newTestServer(t, Config{Workers: 1}, func(j sweep.Job) (sweep.Outcome, error) {
		started <- j.Key()
		<-release
		return instantOutcome(j)
	})
	w := do(t, s, "POST", "/v1/simulate", `{"org":"org1","lambda":0.0003,"measure":100}`)
	var ref jobRef
	if err := json.Unmarshal(w.Body.Bytes(), &ref); err != nil {
		t.Fatal(err)
	}
	key := <-started
	p := s.progress.begin(key)
	p.update(123456, 0.75)

	var doc map[string]any
	if err := json.Unmarshal(do(t, s, "GET", "/v1/jobs/"+ref.ID, "").Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc["status"] != "running" {
		t.Fatalf("job status = %v, want running", doc["status"])
	}
	prog, ok := doc["progress"].(map[string]any)
	if !ok {
		t.Fatalf("running job has no progress object: %v", doc)
	}
	if prog["events"] != float64(123456) {
		t.Errorf("progress events = %v, want 123456", prog["events"])
	}
	if prog["sim_time"] != 0.75 {
		t.Errorf("progress sim_time = %v, want 0.75", prog["sim_time"])
	}
	if _, ok := prog["events_per_sec"]; !ok {
		t.Error("progress missing events_per_sec")
	}
	if _, ok := doc["wall_time_sec"]; !ok {
		t.Error("running job missing wall_time_sec")
	}

	s.progress.end(key)
	close(release)
	waitDone(t, s, ref.ID)
}

// mutexWriter collects log output from the server's worker goroutines.
type mutexWriter struct {
	mu sync.Mutex
	b  strings.Builder
}

func (w *mutexWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *mutexWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

func TestJobLifecycleLogLines(t *testing.T) {
	var buf mutexWriter
	logger, err := obs.NewLogger(&buf, "json", "info")
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Workers: 1, Logger: logger}, instantOutcome)
	w := do(t, s, "POST", "/v1/simulate", `{"org":"org1","lambda":0.0003,"measure":100}`)
	var ref jobRef
	if err := json.Unmarshal(w.Body.Bytes(), &ref); err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, ref.ID)

	want := map[string]bool{"job queued": false, "job started": false, "job done": false, "request": false}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" {
			continue
		}
		var doc map[string]any
		if err := json.Unmarshal([]byte(line), &doc); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, line)
		}
		msg, _ := doc["msg"].(string)
		if _, tracked := want[msg]; !tracked {
			continue
		}
		switch msg {
		case "job queued":
			if doc["job_id"] != ref.ID {
				continue
			}
			// The queued line carries the submitting request's correlation id.
			if id, _ := doc["request_id"].(string); !strings.HasPrefix(id, obs.RequestIDPrefix) {
				t.Errorf("job queued line request_id = %v", doc["request_id"])
			}
		case "job started":
			if doc["job_id"] != ref.ID {
				continue
			}
		case "job done":
			if doc["job_id"] != ref.ID {
				continue
			}
			if _, ok := doc["wall_ms"].(float64); !ok {
				t.Errorf("job done line missing wall_ms: %s", line)
			}
			if doc["cache"] != "hit" && doc["cache"] != "miss" {
				t.Errorf("job done line cache = %v", doc["cache"])
			}
		}
		want[msg] = true
	}
	for msg, seen := range want {
		if !seen {
			t.Errorf("no %q log line; log:\n%s", msg, buf.String())
		}
	}
}

// BenchmarkMetricsRecordParallel is the satellite proof that metrics.record
// no longer serializes all routes behind one mutex: parallel recorders on
// distinct routes must scale, contending only on their own route's ring.
func BenchmarkMetricsRecordParallel(b *testing.B) {
	routes := []string{"GET /a", "GET /b", "GET /c", "GET /d"}
	m := newMetrics(routes)
	b.RunParallel(func(pb *testing.PB) {
		var n int
		for pb.Next() {
			m.record(routes[n%len(routes)], 200, 125*time.Microsecond)
			n++
		}
	})
}

// BenchmarkMetricsRecordParallelSameRoute is the worst case: every recorder
// on one route (the analyze fast path under load).
func BenchmarkMetricsRecordParallelSameRoute(b *testing.B) {
	m := newMetrics([]string{"POST /v1/analyze"})
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			m.record("POST /v1/analyze", 200, 125*time.Microsecond)
		}
	})
}
