package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"

	"mcnet/internal/routing"
	"mcnet/internal/topo"
)

func TestFramesFoldToTheirPackage(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"mcnet/internal/des.(*Scheduler).pop", "mcnet/internal/mcsim.(*Sim).Run"}, "des"},
		{[]string{"mcnet/internal/wormhole.(*Network).advance"}, "wormhole"},
		{[]string{"mcnet/internal/serve.(*lru[go.shape.string]).Get"}, "serve"},
		{[]string{"mcnet/internal/tree.(*Tree).Up"}, "routing"},
		{[]string{"encoding/json.(*encodeState).marshal"}, "json"},
		{[]string{"net/http.(*conn).serve"}, "nethttp"},
		{[]string{"internal/poll.(*FD).Write", "net.(*conn).Write"}, "nethttp"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.memmove", "runtime.gcAssistAlloc", "runtime.mallocgc"}, "gc"},
		{[]string{"runtime.mallocgc", "mcnet/internal/analytic.New"}, "runtime"},
		{[]string{"internal/runtime/syscall.Syscall6"}, "runtime"},
		{[]string{"mcnet/perfbench.waitUntil"}, "other"},
		{[]string{"strconv.FormatFloat"}, "other"},
		{nil, "other"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%q) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestFoldProfileReadsARealProfile profiles an allocation-free routing loop
// and expects the decoded samples to fold to internal/topo and routing.
func TestFoldProfileReadsARealProfile(t *testing.T) {
	fat, err := topo.New(topo.Spec{}, 8, 3, routing.Balanced)
	if err != nil {
		t.Fatal(err)
	}
	path := make([]int32, 0, fat.MaxRouteLen())
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	for start := time.Now(); time.Since(start) < 600*time.Millisecond; {
		for i := 0; i < 10000; i++ {
			path = fat.AppendRoute(path[:0], 0, i%fat.Nodes(), (i*7+1)%fat.Nodes(), uint64(i))
		}
	}
	pprof.StopCPUProfile()
	shares, samples, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples < 10 {
		t.Skipf("only %d samples", samples)
	}
	var sum float64
	for _, l := range cpuLayers {
		sum += shares[l]
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %v", sum)
	}
	// The fat tree's AppendRoute runs in topo and the tree routing it
	// wraps; the rest is the loop itself, the runtime and, under the race
	// detector, its instrumentation.
	var repo float64
	for _, l := range cpuLayers[:9] { // the mcnet layers
		repo += shares[l]
	}
	if route := shares["topo"] + shares["routing"]; route == 0 || route < 0.9*repo {
		t.Errorf("shares %v: the routing loop did not fold to topo and routing", shares)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	kids := []span{{Start: 60, End: 70}, {Start: 10, End: 30}, {Start: 20, End: 50}, {Start: 90, End: 120}}
	if got := covered(parent, kids); got != 60 {
		t.Fatalf("covered = %d, want 60", got)
	}
}
