package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcnet/internal/sweep"
)

// newTestServer builds a server (closed at test end) whose executions run
// through hook instead of the real simulator; hook nil keeps the simulator.
func newTestServer(t *testing.T, cfg Config, hook func(sweep.Job) (sweep.Outcome, error)) *Server {
	t.Helper()
	if hook != nil {
		testHookExecute = hook
		t.Cleanup(func() { testHookExecute = nil })
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// do runs one request through the full handler path.
func do(t *testing.T, s *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, path, nil)
	} else {
		r = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	return w
}

// instantOutcome is a fast deterministic stand-in for the simulator.
func instantOutcome(j sweep.Job) (sweep.Outcome, error) {
	return sweep.Outcome{SimLatency: sweep.Float(10 * j.Lambda), Delivered: j.Measure}, nil
}

// waitDone polls the job until it leaves the queue, returning its final
// document.
func waitDone(t *testing.T, s *Server, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		w := do(t, s, "GET", "/v1/jobs/"+id, "")
		if w.Code != http.StatusOK {
			t.Fatalf("GET job: status %d: %s", w.Code, w.Body)
		}
		var doc map[string]any
		if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		switch doc["status"] {
		case "done", "failed":
			return doc
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in status %v", id, doc["status"])
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t, Config{}, instantOutcome)
	w := do(t, s, "GET", "/healthz", "")
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"ok"`) {
		t.Fatalf("healthz: %d %s", w.Code, w.Body)
	}
}

func TestAnalyzeValidation(t *testing.T) {
	s := newTestServer(t, Config{}, instantOutcome)
	cases := []struct {
		name string
		body string
		want int
	}{
		{"ok", `{"org":"org1","lambda":0.0003}`, 200},
		{"ok links + geometry", `{"org":"org2","lambda":0.0004,"flits":64,"flit_bytes":512,"links":"icn2=0.04/0.02/0.004"}`, 200},
		{"ok paper-literal", `{"org":"org1","lambda":0.0003,"model":"paper-literal"}`, 200},
		{"missing org", `{"lambda":0.0003}`, 400},
		{"bad org", `{"org":"m=3:2x1","lambda":0.0003}`, 400},
		{"zero lambda", `{"org":"org1","lambda":0}`, 400},
		{"negative lambda", `{"org":"org1","lambda":-1}`, 400},
		{"bad links", `{"org":"org1","lambda":0.0003,"links":"warp=1/2/3"}`, 400},
		{"model none", `{"org":"org1","lambda":0.0003,"model":"none"}`, 400},
		{"unknown model", `{"org":"org1","lambda":0.0003,"model":"psychic"}`, 400},
		{"unknown field", `{"org":"org1","lambda":0.0003,"lambada":1}`, 400},
		{"negative flits", `{"org":"org1","lambda":0.0003,"flits":-4}`, 400},
		{"bad tech", `{"org":"org1","lambda":0.0003,"tech":{"alpha_net":-1,"alpha_sw":0.01,"beta_net":0.002}}`, 400},
		{"not json", `latency please`, 400},
		{"trailing garbage", `{"org":"org1","lambda":0.0003} extra`, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := do(t, s, "POST", "/v1/analyze", tc.body)
			if w.Code != tc.want {
				t.Fatalf("status %d, want %d: %s", w.Code, tc.want, w.Body)
			}
			if tc.want != 200 && !strings.Contains(w.Body.String(), `"error"`) {
				t.Fatalf("error response without error document: %s", w.Body)
			}
		})
	}
}

func TestAnalyzeAnswersAndSaturates(t *testing.T) {
	s := newTestServer(t, Config{}, instantOutcome)
	w := do(t, s, "POST", "/v1/analyze", `{"org":"org1","lambda":0.0003}`)
	var resp analyzeResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Saturated || !(float64(resp.Latency) > 0) {
		t.Fatalf("mid-load analyze: %+v", resp)
	}
	if !(float64(resp.SaturationPoint) > 0) {
		t.Fatalf("no saturation point: %+v", resp)
	}
	// Past the saturation point the model must refuse with latency null.
	over := fmt.Sprintf(`{"org":"org1","lambda":%g}`, 2*float64(resp.SaturationPoint))
	w = do(t, s, "POST", "/v1/analyze", over)
	if w.Code != http.StatusOK {
		t.Fatalf("saturated analyze: %d %s", w.Code, w.Body)
	}
	var sat analyzeResponse
	if err := json.Unmarshal(w.Body.Bytes(), &sat); err != nil {
		t.Fatal(err)
	}
	if !sat.Saturated || !math.IsNaN(float64(sat.Latency)) {
		t.Fatalf("over-saturation analyze: %+v", sat)
	}
	if !strings.Contains(w.Body.String(), `"latency":null`) {
		t.Fatalf("saturated latency not encoded as null: %s", w.Body)
	}
}

func TestAnalyzeCachedByteIdentical(t *testing.T) {
	s := newTestServer(t, Config{}, instantOutcome)
	body := `{"org":"org1","lambda":0.0003}`
	w1 := do(t, s, "POST", "/v1/analyze", body)
	if w1.Code != 200 || w1.Header().Get("X-Cache") != "miss" {
		t.Fatalf("first analyze: %d X-Cache=%q", w1.Code, w1.Header().Get("X-Cache"))
	}
	w2 := do(t, s, "POST", "/v1/analyze", body)
	if w2.Code != 200 || w2.Header().Get("X-Cache") != "hit" {
		t.Fatalf("second analyze: %d X-Cache=%q", w2.Code, w2.Header().Get("X-Cache"))
	}
	if !bytes.Equal(w1.Body.Bytes(), w2.Body.Bytes()) {
		t.Fatalf("repeated analyze bodies differ:\n%s\n%s", w1.Body, w2.Body)
	}
	if hits, misses := s.respHits.Load(), s.respMisses.Load(); hits != 1 || misses != 1 {
		t.Fatalf("response cache counters: %d hits / %d misses, want 1/1", hits, misses)
	}
	// Equivalent spellings canonicalize onto the same entry: the named org
	// shortcut, an explicit default geometry and the "uniform" links spec
	// all describe the first request's scenario.
	spelled := `{"org":"org1","lambda":0.0003,"flits":32,"flit_bytes":256,"links":"uniform","model":"calibrated"}`
	w3 := do(t, s, "POST", "/v1/analyze", spelled)
	if w3.Header().Get("X-Cache") != "hit" || !bytes.Equal(w1.Body.Bytes(), w3.Body.Bytes()) {
		t.Fatalf("equivalent spelling missed the cache: X-Cache=%q", w3.Header().Get("X-Cache"))
	}
}

func TestSimulateJobLifecycle(t *testing.T) {
	var mu sync.Mutex
	executed := 0
	hook := func(j sweep.Job) (sweep.Outcome, error) {
		mu.Lock()
		executed++
		mu.Unlock()
		return instantOutcome(j)
	}
	s := newTestServer(t, Config{Workers: 2}, hook)
	body := `{"org":"m=4:2x1,2x2","lambda":0.0005,"warmup":100,"measure":1000,"drain":100}`
	w1 := do(t, s, "POST", "/v1/simulate", body)
	if w1.Code != http.StatusAccepted || w1.Header().Get("X-Cache") != "miss" {
		t.Fatalf("first submit: %d X-Cache=%q %s", w1.Code, w1.Header().Get("X-Cache"), w1.Body)
	}
	var ref jobRef
	if err := json.Unmarshal(w1.Body.Bytes(), &ref); err != nil {
		t.Fatal(err)
	}
	if !sweep.ValidKey(ref.ID) || ref.Href != "/v1/jobs/"+ref.ID {
		t.Fatalf("job ref %+v", ref)
	}
	doc := waitDone(t, s, ref.ID)
	if doc["status"] != "done" {
		t.Fatalf("job finished as %v: %v", doc["status"], doc["error"])
	}
	result, ok := doc["result"].(map[string]any)
	if !ok {
		t.Fatalf("done job carries no result: %v", doc)
	}
	if result["delivered"].(float64) != 1000 {
		t.Fatalf("result %v", result)
	}
	// The seed was derived sweep-style (base seed 1, identity hash): the
	// job document must carry a nonzero sim_seed.
	job := doc["job"].(map[string]any)
	if job["sim_seed"].(float64) == 0 {
		t.Fatal("job seed was not derived")
	}

	// Identical resubmission: byte-identical body, served from the store
	// (X-Cache: hit), nothing recomputed.
	w2 := do(t, s, "POST", "/v1/simulate", body)
	if w2.Code != http.StatusOK || w2.Header().Get("X-Cache") != "hit" {
		t.Fatalf("resubmit: %d X-Cache=%q", w2.Code, w2.Header().Get("X-Cache"))
	}
	if !bytes.Equal(w1.Body.Bytes(), w2.Body.Bytes()) {
		t.Fatalf("repeated simulate bodies differ:\n%s\n%s", w1.Body, w2.Body)
	}
	// Repeated reads of the finished job are byte-identical too.
	g1 := do(t, s, "GET", "/v1/jobs/"+ref.ID, "")
	g2 := do(t, s, "GET", "/v1/jobs/"+ref.ID, "")
	if !bytes.Equal(g1.Body.Bytes(), g2.Body.Bytes()) {
		t.Fatal("repeated job reads differ")
	}
	mu.Lock()
	defer mu.Unlock()
	if executed != 1 {
		t.Fatalf("simulator ran %d times for identical requests, want 1", executed)
	}
}

func TestSimulateValidationAndJobErrors(t *testing.T) {
	s := newTestServer(t, Config{}, instantOutcome)
	cases := []struct {
		name string
		body string
	}{
		{"missing org", `{"lambda":0.001}`},
		{"bad pattern", `{"org":"org2","lambda":0.001,"pattern":"tornado"}`},
		{"bad routing", `{"org":"org2","lambda":0.001,"routing":"clockwise"}`},
		{"bad arrival", `{"org":"org2","lambda":0.001,"arrival":"mmpp:NaN:4"}`},
		{"bad sizes", `{"org":"org2","lambda":0.001,"sizes":"trimodal:1:2:3"}`},
		{"negative measure", `{"org":"org2","lambda":0.001,"measure":-5}`},
		{"negative rep", `{"org":"org2","lambda":0.001,"rep":-1}`},
		{"model on simulate", `{"org":"org2","lambda":0.001,"model":"calibrated"}`},
		{"bad topo", `{"org":"org2","lambda":0.001,"topo":"torus"}`},
		{"global-only topo as cluster", `{"org":"org2","lambda":0.001,"topo":"dragonfly"}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if w := do(t, s, "POST", "/v1/simulate", tc.body); w.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", w.Code, w.Body)
			}
		})
	}
	if w := do(t, s, "GET", "/v1/jobs/not%2Fa%2Fkey", ""); w.Code != http.StatusBadRequest {
		t.Fatalf("malformed id: %d", w.Code)
	}
	if w := do(t, s, "GET", "/v1/jobs/"+strings.Repeat("a", 64), ""); w.Code != http.StatusNotFound {
		t.Fatalf("unknown id: %d", w.Code)
	}
}

// TestSimulateTopoAxis pins the topology axis through the job layer: the
// canonical default spelling collapses to the fat-tree identity (same job,
// same cache key), while a non-default topology is a distinct job.
func TestSimulateTopoAxis(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1}, instantOutcome)
	submit := func(body string) jobRef {
		w := do(t, s, "POST", "/v1/simulate", body)
		if w.Code != http.StatusAccepted && w.Code != http.StatusOK {
			t.Fatalf("submit %s: %d %s", body, w.Code, w.Body)
		}
		var ref jobRef
		if err := json.Unmarshal(w.Body.Bytes(), &ref); err != nil {
			t.Fatal(err)
		}
		return ref
	}
	base := `{"org":"m=4:2x1,2x2","lambda":0.0005,"measure":1000`
	def := submit(base + `}`)
	fat := submit(base + `,"topo":"fattree"}`)
	jelly := submit(base + `,"topo":"jellyfish"}`)
	if def.ID != fat.ID {
		t.Fatalf("explicit fattree is a different job than the default: %s vs %s", fat.ID, def.ID)
	}
	if jelly.ID == def.ID {
		t.Fatal("jellyfish job shares the fat-tree identity")
	}
	doc := waitDone(t, s, jelly.ID)
	if doc["status"] != "done" {
		t.Fatalf("jellyfish job finished as %v: %v", doc["status"], doc["error"])
	}
	if job := doc["job"].(map[string]any); job["topo"] != "jellyfish" {
		t.Fatalf("job document topo = %v, want jellyfish", job["topo"])
	}
}

func TestCompareJobAttachesAnalysis(t *testing.T) {
	s := newTestServer(t, Config{}, nil) // real simulator: compare is the integration path
	// Pick a comfortably stable operating point from the model itself.
	w := do(t, s, "POST", "/v1/analyze", `{"org":"m=4:2x1,2x2","lambda":1e-9}`)
	var probe analyzeResponse
	if err := json.Unmarshal(w.Body.Bytes(), &probe); err != nil {
		t.Fatal(err)
	}
	lambda := 0.3 * float64(probe.SaturationPoint)
	body := fmt.Sprintf(`{"org":"m=4:2x1,2x2","lambda":%g,"warmup":200,"measure":2000,"drain":200}`, lambda)
	wj := do(t, s, "POST", "/v1/compare", body)
	if wj.Code != http.StatusAccepted {
		t.Fatalf("compare submit: %d %s", wj.Code, wj.Body)
	}
	var ref jobRef
	if err := json.Unmarshal(wj.Body.Bytes(), &ref); err != nil {
		t.Fatal(err)
	}
	doc := waitDone(t, s, ref.ID)
	if doc["status"] != "done" {
		t.Fatalf("compare failed: %v", doc["error"])
	}
	result := doc["result"].(map[string]any)
	analysis, _ := result["analysis"].(float64)
	simLat, _ := result["sim_latency"].(float64)
	rel, _ := result["relative_error"].(float64)
	if !(analysis > 0) || !(simLat > 0) {
		t.Fatalf("compare result %v", result)
	}
	if want := math.Abs(analysis-simLat) / simLat; math.Abs(rel-want) > 1e-12 {
		t.Fatalf("relative_error = %v, want %v", rel, want)
	}
	// A compare and a simulate of the same point are distinct jobs.
	ws := do(t, s, "POST", "/v1/simulate", body)
	var sref jobRef
	if err := json.Unmarshal(ws.Body.Bytes(), &sref); err != nil {
		t.Fatal(err)
	}
	if sref.ID == ref.ID {
		t.Fatal("simulate and compare share a job id")
	}
	// But they share the simulation outcome: the simulate job must complete
	// from cache without executing again.
	before := s.executed.Load()
	if doc := waitDone(t, s, sref.ID); doc["status"] != "done" {
		t.Fatalf("simulate after compare failed: %v", doc["error"])
	}
	if after := s.executed.Load(); after != before {
		t.Fatalf("outcome not shared: executed went %d -> %d", before, after)
	}
}

func TestQueueBackpressure429(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 8)
	hook := func(j sweep.Job) (sweep.Outcome, error) {
		started <- struct{}{}
		<-block
		return instantOutcome(j)
	}
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1}, hook)
	defer close(block)

	submit := func(i int) *httptest.ResponseRecorder {
		body := fmt.Sprintf(`{"org":"m=4:2x1,2x2","lambda":%g,"measure":1000}`, 0.0001*float64(i+1))
		return do(t, s, "POST", "/v1/simulate", body)
	}
	// First job occupies the worker…
	if w := submit(0); w.Code != http.StatusAccepted {
		t.Fatalf("submit 0: %d %s", w.Code, w.Body)
	}
	<-started
	// …second fills the queue slot…
	if w := submit(1); w.Code != http.StatusAccepted {
		t.Fatalf("submit 1: %d %s", w.Code, w.Body)
	}
	// …third must bounce with 429 and a Retry-After hint.
	w := submit(2)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("submit 2: %d, want 429: %s", w.Code, w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	// Resubmitting a known job is dedup, not new work: still accepted.
	if w := submit(1); w.Code != http.StatusOK {
		t.Fatalf("resubmit under pressure: %d, want 200", w.Code)
	}
}

func sweepBody() string {
	spec := sweep.Spec{
		Name:     "served-test",
		Orgs:     []string{"m=4:2x1,2x2"},
		Patterns: []string{"uniform", "cluster-local:0.6"},
		Loads:    sweep.Loads{Points: 2, MaxFraction: 0.5},
		Warmup:   100, Measure: 1000, Drain: 100,
	}
	b, _ := json.Marshal(spec)
	return string(b)
}

func TestSweepStreamsNDJSON(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2}, instantOutcome)
	w := do(t, s, "POST", "/v1/sweep", sweepBody())
	if w.Code != http.StatusOK {
		t.Fatalf("sweep: %d %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var rows []sweep.Result
	sc := bufio.NewScanner(bytes.NewReader(w.Body.Bytes()))
	for sc.Scan() {
		var row sweep.Result
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("bad NDJSON row %q: %v", sc.Text(), err)
		}
		rows = append(rows, row)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4 (2 patterns × 2 loads)", len(rows))
	}
	for i, row := range rows {
		if row.Job.Index != i {
			t.Fatalf("row %d carries job %d: stream out of order", i, row.Job.Index)
		}
	}
	// A repeated identical sweep is served from cache, byte for byte.
	before := s.executed.Load()
	w2 := do(t, s, "POST", "/v1/sweep", sweepBody())
	if !bytes.Equal(w.Body.Bytes(), w2.Body.Bytes()) {
		t.Fatal("repeated sweep bodies differ")
	}
	if after := s.executed.Load(); after != before {
		t.Fatalf("repeated sweep re-executed jobs: %d -> %d", before, after)
	}
}

func TestSweepValidationAndLimits(t *testing.T) {
	s := newTestServer(t, Config{MaxSweepJobs: 2}, instantOutcome)
	if w := do(t, s, "POST", "/v1/sweep", `{"orgs":["m=3:2x1"],"loads":{"points":2}}`); w.Code != http.StatusBadRequest {
		t.Fatalf("invalid spec: %d", w.Code)
	}
	if w := do(t, s, "POST", "/v1/sweep", `not a spec`); w.Code != http.StatusBadRequest {
		t.Fatalf("malformed body: %d", w.Code)
	}
	w := do(t, s, "POST", "/v1/sweep", sweepBody()) // expands to 4 > limit 2
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "limit") {
		t.Fatalf("oversized sweep: %d %s", w.Code, w.Body)
	}
	// A grid-bomb spec (billions of load points) must be rejected from the
	// axis arithmetic alone, before Expand can materialize anything.
	start := time.Now()
	w = do(t, s, "POST", "/v1/sweep", `{"orgs":["m=4:2x1,2x2"],"loads":{"points":2000000000},"measure":1000}`)
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "limit") {
		t.Fatalf("grid bomb: %d %s", w.Code, w.Body)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("grid bomb took %v to reject: the grid was materialized", elapsed)
	}
	// Huge replication counts hit the same guard.
	if w := do(t, s, "POST", "/v1/sweep", `{"orgs":["m=4:2x1,2x2"],"loads":{"points":1},"reps":2000000000,"measure":1000}`); w.Code != http.StatusBadRequest {
		t.Fatalf("reps bomb: %d %s", w.Code, w.Body)
	}
}

func TestFailedJobRetriesOnResubmit(t *testing.T) {
	// A transiently failing job must not poison its content-derived id: the
	// first submission fails, an identical resubmission re-enqueues and
	// succeeds.
	var calls atomic.Int32
	hook := func(j sweep.Job) (sweep.Outcome, error) {
		if calls.Add(1) == 1 {
			return sweep.Outcome{}, errors.New("transient backend hiccup")
		}
		return instantOutcome(j)
	}
	s := newTestServer(t, Config{Workers: 1}, hook)
	body := `{"org":"m=4:2x1,2x2","lambda":0.0005,"measure":1000}`
	w1 := do(t, s, "POST", "/v1/simulate", body)
	var ref jobRef
	if err := json.Unmarshal(w1.Body.Bytes(), &ref); err != nil {
		t.Fatal(err)
	}
	doc := waitDone(t, s, ref.ID)
	if doc["status"] != "failed" || !strings.Contains(doc["error"].(string), "transient") {
		t.Fatalf("first attempt: %v", doc)
	}
	w2 := do(t, s, "POST", "/v1/simulate", body)
	if w2.Code != http.StatusAccepted {
		t.Fatalf("retry submission: %d, want 202 (re-enqueued)", w2.Code)
	}
	if !bytes.Equal(w1.Body.Bytes(), w2.Body.Bytes()) {
		t.Fatal("retry submission body differs")
	}
	doc = waitDone(t, s, ref.ID)
	if doc["status"] != "done" {
		t.Fatalf("retry attempt: %v", doc)
	}
	if doc["error"] != nil {
		t.Fatalf("stale error survived the retry: %v", doc["error"])
	}
}

func TestSweepConcurrencyLimit429(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 8)
	hook := func(j sweep.Job) (sweep.Outcome, error) {
		started <- struct{}{}
		<-block
		return instantOutcome(j)
	}
	s := newTestServer(t, Config{Workers: 1, ConcurrentSweeps: 1}, hook)
	first := make(chan *httptest.ResponseRecorder, 1)
	go func() { first <- do(t, s, "POST", "/v1/sweep", sweepBody()) }()
	<-started // the first sweep is mid-stream
	w := do(t, s, "POST", "/v1/sweep", sweepBody())
	close(block) // let the first sweep finish before asserting
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("second sweep: %d, want 429", w.Code)
	}
	if w := <-first; w.Code != http.StatusOK {
		t.Fatalf("first sweep: %d", w.Code)
	}
}

func TestDiskCacheSharedWithSweeps(t *testing.T) {
	// An outcome computed by a CLI-style engine into a DirCache is served
	// without re-execution, and a server-computed outcome lands in the same
	// DirCache — the disk layer is genuinely shared.
	dir := t.TempDir()
	disk, err := sweep.NewDirCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	job := jobRequest{Org: "m=4:2x1,2x2", Lambda: 0.0004, Warmup: 100, Measure: 1000, Drain: 100}
	j, err := job.toJob(canonicalOrgSpec)
	if err != nil {
		t.Fatal(err)
	}
	pre := sweep.Outcome{SimLatency: 99, Delivered: 1000}
	if err := disk.Put(j.Key(), pre); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Disk: disk}, func(sweep.Job) (sweep.Outcome, error) {
		t.Error("executed despite warm disk cache")
		return sweep.Outcome{}, nil
	})
	body := `{"org":"m=4:2x1,2x2","lambda":0.0004,"warmup":100,"measure":1000,"drain":100}`
	w := do(t, s, "POST", "/v1/simulate", body)
	var ref jobRef
	if err := json.Unmarshal(w.Body.Bytes(), &ref); err != nil {
		t.Fatal(err)
	}
	doc := waitDone(t, s, ref.ID)
	if doc["status"] != "done" {
		t.Fatalf("warm-cache job failed: %v", doc["error"])
	}
	if lat := doc["result"].(map[string]any)["sim_latency"].(float64); lat != 99 {
		t.Fatalf("sim_latency %v, want the disk entry's 99", lat)
	}
}

func TestMetricsReport(t *testing.T) {
	s := newTestServer(t, Config{}, instantOutcome)
	do(t, s, "POST", "/v1/analyze", `{"org":"org1","lambda":0.0003}`)
	do(t, s, "POST", "/v1/analyze", `{"org":"org1","lambda":0.0003}`)
	do(t, s, "POST", "/v1/analyze", `{"org":"nope","lambda":1}`)
	w := do(t, s, "POST", "/v1/simulate", `{"org":"m=4:2x1,2x2","lambda":0.0005,"measure":1000}`)
	var ref jobRef
	if err := json.Unmarshal(w.Body.Bytes(), &ref); err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, ref.ID)
	do(t, s, "POST", "/v1/simulate", `{"org":"m=4:2x1,2x2","lambda":0.0005,"measure":1000}`)

	mw := do(t, s, "GET", "/metrics", "")
	if mw.Code != http.StatusOK {
		t.Fatalf("metrics: %d", mw.Code)
	}
	var doc metricsDoc
	if err := json.Unmarshal(mw.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	an := doc.Requests["POST /v1/analyze"]
	if an.Count != 3 || an.Errors != 1 {
		t.Fatalf("analyze route stats %+v", an)
	}
	if an.Latency == nil || !(float64(an.Latency.P50) >= 0) || float64(an.Latency.Max) < float64(an.Latency.P50) {
		t.Fatalf("analyze latency doc %+v", an.Latency)
	}
	if doc.Cache.AnalyzeHits != 1 || doc.Cache.AnalyzeMisses != 1 {
		t.Fatalf("analyze cache counters %+v", doc.Cache)
	}
	if doc.SimulationsExecuted != 1 {
		t.Fatalf("simulations_executed = %d, want 1", doc.SimulationsExecuted)
	}
	if doc.Queue.Capacity == 0 || doc.Queue.Done < 1 {
		t.Fatalf("queue doc %+v", doc.Queue)
	}
}

func TestEndToEndRealSimulation(t *testing.T) {
	// No hook: one small real simulation through the whole service, so the
	// handler → queue → sweep.Execute → cache path is exercised against the
	// actual simulator.
	if testing.Short() {
		t.Skip("real simulation skipped in -short")
	}
	s := newTestServer(t, Config{Workers: 1}, nil)
	w := do(t, s, "POST", "/v1/analyze", `{"org":"m=4:2x1,2x2","lambda":1e-9}`)
	var probe analyzeResponse
	if err := json.Unmarshal(w.Body.Bytes(), &probe); err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"org":"m=4:2x1,2x2","lambda":%g,"warmup":100,"measure":1000,"drain":100}`,
		0.3*float64(probe.SaturationPoint))
	ws := do(t, s, "POST", "/v1/simulate", body)
	var ref jobRef
	if err := json.Unmarshal(ws.Body.Bytes(), &ref); err != nil {
		t.Fatal(err)
	}
	doc := waitDone(t, s, ref.ID)
	if doc["status"] != "done" {
		t.Fatalf("real simulation failed: %v", doc["error"])
	}
	result := doc["result"].(map[string]any)
	if !(result["sim_latency"].(float64) > 0) || !(result["delivered"].(float64) > 0) {
		t.Fatalf("real simulation result %v", result)
	}
}
