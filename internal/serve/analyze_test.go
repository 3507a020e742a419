package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"mcnet/internal/analytic"
	"mcnet/internal/sweep"
	"mcnet/internal/system"
	"mcnet/internal/units"
)

// freshModel builds the calibrated default-technology model of an org spec
// from scratch, outside any server cache.
func freshModel(t *testing.T, spec string) *analytic.Model {
	t.Helper()
	org, err := system.ParseOrganization(spec)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := system.New(org)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := sweep.ModelOptions("calibrated")
	if err != nil {
		t.Fatal(err)
	}
	m, err := analytic.New(sys, units.Default(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// analyzeRaw posts one analyze request and returns its status-200 body and
// the raw JSON fields.
func analyzeRaw(t *testing.T, s *Server, body string) ([]byte, map[string]json.RawMessage) {
	t.Helper()
	w := do(t, s, "POST", "/v1/analyze", body)
	if w.Code != http.StatusOK {
		t.Fatalf("analyze %s: %d %s", body, w.Code, w.Body)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(w.Body.Bytes(), &fields); err != nil {
		t.Fatal(err)
	}
	return w.Body.Bytes(), fields
}

// TestAnalyzeSaturationPointMemoized pins that the saturation point a
// prepared model reports, after it has answered loads on both sides of
// saturation, is byte-identical to a search on a fresh model.
func TestAnalyzeSaturationPointMemoized(t *testing.T) {
	s := newTestServer(t, Config{}, instantOutcome)
	sat := analytic.NewGrid(freshModel(t, "org1")).SaturationPoint(1e-6, 1, 1e-4)
	want, err := json.Marshal(sweep.Float(sat))
	if err != nil {
		t.Fatal(err)
	}
	saturated := 0
	for _, f := range []float64{0.1, 1.5, 0.5, 3, 0.9} {
		_, fields := analyzeRaw(t, s, fmt.Sprintf(`{"org":"org1","lambda":%v}`, f*sat))
		if string(fields["saturated"]) == "true" {
			saturated++
		}
		if got := fields["saturation_point"]; !bytes.Equal(got, want) {
			t.Fatalf("λ=%v·sat: saturation_point %s, fresh model %s", f, got, want)
		}
	}
	if saturated != 2 {
		t.Fatalf("%d saturated answers, want 2", saturated)
	}
	if n := s.models.Len(); n != 1 {
		t.Fatalf("%d prepared models, want 1", n)
	}
}

// TestAnalyzeConcurrentLoads sends distinct loads on one model at once: every
// answer must carry the same saturation point and the fresh model's latency.
func TestAnalyzeConcurrentLoads(t *testing.T) {
	s := newTestServer(t, Config{}, instantOutcome)
	m := freshModel(t, "org2")
	sat := m.SaturationPoint(1e-6, 1, 1e-4)
	const n = 8
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lambda := sat * float64(i+1) / n * 0.99
			w := do(t, s, "POST", "/v1/analyze", fmt.Sprintf(`{"org":"org2","lambda":%v}`, lambda))
			if w.Code == http.StatusOK {
				bodies[i] = w.Body.Bytes()
			}
		}()
	}
	wg.Wait()
	for i, b := range bodies {
		if b == nil {
			t.Fatalf("request %d failed", i)
		}
		var resp analyzeResponse
		if err := json.Unmarshal(b, &resp); err != nil {
			t.Fatal(err)
		}
		if float64(resp.SaturationPoint) != sat {
			t.Fatalf("request %d: saturation point %v, want %v", i, resp.SaturationPoint, sat)
		}
		want, err := m.MeanLatency(resp.Lambda)
		if err != nil {
			t.Fatal(err)
		}
		if float64(resp.Latency) != want {
			t.Fatalf("request %d: latency %v, fresh model %v", i, resp.Latency, want)
		}
	}
}

// TestAnalyzeInvalidOrgRepeats pins that an invalid spec is never memoized:
// it fails with the identical 400 body every time.
func TestAnalyzeInvalidOrgRepeats(t *testing.T) {
	s := newTestServer(t, Config{}, instantOutcome)
	body := `{"org":"m=3:2x1","lambda":0.0003}`
	w1 := do(t, s, "POST", "/v1/analyze", body)
	w2 := do(t, s, "POST", "/v1/analyze", body)
	if w1.Code != http.StatusBadRequest || w2.Code != http.StatusBadRequest {
		t.Fatalf("invalid org: status %d then %d, want 400 twice", w1.Code, w2.Code)
	}
	if !bytes.Equal(w1.Body.Bytes(), w2.Body.Bytes()) {
		t.Fatalf("invalid org answers differ:\n%s\n%s", w1.Body, w2.Body)
	}
	if n := s.orgs.Len(); n != 0 {
		t.Fatalf("%d org specs memoized after failures, want 0", n)
	}
}

// TestAnalyzeOrgSpellingsShareEntry pins that the named shortcut and its
// expanded spelling, each memoized under its own raw string, still land on
// one response entry.
func TestAnalyzeOrgSpellingsShareEntry(t *testing.T) {
	s := newTestServer(t, Config{}, instantOutcome)
	short := `{"org":"org1","lambda":0.0003}`
	long := fmt.Sprintf(`{"org":%q,"lambda":0.0003}`, system.Format(system.Table1Org1()))
	first, _ := analyzeRaw(t, s, short)
	for _, body := range []string{long, short, long} {
		w := do(t, s, "POST", "/v1/analyze", body)
		if w.Header().Get("X-Cache") != "hit" || !bytes.Equal(w.Body.Bytes(), first) {
			t.Fatalf("%s: X-Cache=%q, body\n%s\nwant\n%s", body, w.Header().Get("X-Cache"), w.Body, first)
		}
	}
	if n := s.orgs.Len(); n != 2 {
		t.Fatalf("%d org specs memoized, want 2 (one per raw spelling)", n)
	}
	if n := s.resp.Len(); n != 1 {
		t.Fatalf("%d response entries, want 1", n)
	}
}
