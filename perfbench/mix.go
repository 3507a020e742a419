package main

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
)

// reqKind classifies an analyze request by the cache level it should reach.
type reqKind uint8

const (
	// kindHot repeats one of the hot keys: a response-cache hit.
	kindHot reqKind = iota
	// kindFresh is a new λ on a known organization: the prepared model is
	// cached, the response is not.
	kindFresh
	// kindNovel is an organization never sent before: parse, system.New and
	// analytic.New all run.
	kindNovel
	numKinds
)

// Mix shares, in per-ten-thousand of requests.
const (
	novelShare = 100 // 1%
	freshShare = 900 // 9%
	hotKeys    = 64
)

// knownOrg is an organization the service has seen, with the analytic
// saturation point its λ values are drawn under.
type knownOrg struct {
	spec string
	sat  float64
}

// knownOrgSpecs are the four organizations of the hot set: the paper's two
// Table 1 organizations, a rate-heterogeneous variant and one with
// random-regular clusters under a Dragonfly global tier.
var knownOrgSpecs = []string{
	"org1",
	"org2",
	"m=4:8x3@2,3x4,5x5",
	"m=8@icn2topo=dragonfly:12x1,16x2@topo=jellyfish,4x3",
}

// analyzeReq is one POST /v1/analyze request.
type analyzeReq struct {
	kind   reqKind
	org    string
	lambda float64
	body   []byte
}

func newAnalyzeReq(kind reqKind, org string, lambda float64) analyzeReq {
	body := `{"org":` + strconv.Quote(org) + `,"lambda":` + strconv.FormatFloat(lambda, 'g', -1, 64) + `}`
	return analyzeReq{kind: kind, org: org, lambda: lambda, body: []byte(body)}
}

// analyzeMix draws the seeded analyze request stream.
type analyzeMix struct {
	rng   *rand.Rand
	known []knownOrg
	hot   []analyzeReq
	seen  map[string]bool // never-seen organizations already drawn
}

func newAnalyzeMix(seed uint64, known []knownOrg) *analyzeMix {
	m := &analyzeMix{rng: rand.New(rand.NewPCG(seed, 0x616e616c797a65)), known: known, seen: map[string]bool{}}
	for i := 0; i < hotKeys; i++ {
		k := known[i%len(known)]
		m.hot = append(m.hot, newAnalyzeReq(kindHot, k.spec, k.sat*(0.1+0.7*m.rng.Float64())))
	}
	return m
}

func (m *analyzeMix) next() analyzeReq {
	switch u := m.rng.IntN(10000); {
	case u < novelShare:
		return newAnalyzeReq(kindNovel, m.novelOrg(), 1e-4*(0.5+m.rng.Float64()))
	case u < novelShare+freshShare:
		k := m.known[m.rng.IntN(len(m.known))]
		return newAnalyzeReq(kindFresh, k.spec, k.sat*(0.05+0.85*m.rng.Float64()))
	default:
		return m.hot[m.rng.IntN(len(m.hot))]
	}
}

// novelOrg draws an organization spec not drawn before: two or three
// cluster groups of random shape, each with a random injection-rate factor.
func (m *analyzeMix) novelOrg() string {
	for {
		ports := 4 << m.rng.IntN(2)
		minLevels, maxLevels := 2, 4
		if ports == 8 {
			minLevels, maxLevels = 1, 3
		}
		groups := make([]string, 2+m.rng.IntN(2))
		for i := range groups {
			groups[i] = fmt.Sprintf("%dx%d@%.3f", 1+m.rng.IntN(8),
				minLevels+m.rng.IntN(maxLevels-minLevels+1), 0.5+1.5*m.rng.Float64())
		}
		spec := fmt.Sprintf("m=%d:%s", ports, strings.Join(groups, ","))
		if !m.seen[spec] {
			m.seen[spec] = true
			return spec
		}
	}
}
