package main

import (
	"math"
	"testing"

	"mcnet/internal/system"
)

func TestMixSharesComeOutAsSpecified(t *testing.T) {
	known := []knownOrg{{"org1", 5e-4}, {"org2", 1e-3}, {"m=4:8x3@2,3x4,5x5", 6e-4}, {"m=8:12x1,16x2,4x3", 5e-4}}
	m := newAnalyzeMix(11, known)
	const n = 200000
	var counts [numKinds]int
	hot := map[string]bool{}
	novel := map[string]bool{}
	for i := 0; i < n; i++ {
		req := m.next()
		counts[req.kind]++
		switch req.kind {
		case kindHot:
			hot[string(req.body)] = true
		case kindNovel:
			if novel[req.org] {
				t.Fatalf("never-seen org %s drawn twice", req.org)
			}
			novel[req.org] = true
		}
	}
	for kind, want := range map[reqKind]float64{kindHot: 0.90, kindFresh: 0.09, kindNovel: 0.01} {
		got := float64(counts[kind]) / n
		// Binomial sigma is at most 0.0007 at n = 200000.
		if math.Abs(got-want) > 0.003 {
			t.Errorf("kind %d share %.4f, want %.2f", kind, got, want)
		}
	}
	if len(hot) != hotKeys {
		t.Errorf("%d distinct hot keys, want %d", len(hot), hotKeys)
	}
	// Never-seen organizations are valid ones.
	i := 0
	for spec := range novel {
		if i++; i > 50 {
			break
		}
		org, err := system.ParseOrganization(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if _, err := system.New(org); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
	}
}
