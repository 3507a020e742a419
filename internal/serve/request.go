package serve

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"

	"mcnet/internal/analytic"
	"mcnet/internal/sweep"
	"mcnet/internal/system"
	"mcnet/internal/units"
)

// The helpers below are the request-canonicalization steps shared by the
// analyze fast path and the simulate/compare job path. Both must agree, to
// the byte, on which requests are valid and on the canonical identity of
// equivalent spellings — cache keys hang off these renderings.

// canonicalOrgSpec parses, materializes (so shape errors surface at request
// time) and canonically re-renders an organization spec.
func canonicalOrgSpec(spec string) (string, error) {
	org, err := system.ParseOrganization(spec)
	if err != nil {
		return "", err
	}
	if _, err := system.New(org); err != nil {
		return "", err
	}
	return system.Format(org), nil
}

// canonicalOrg is canonicalOrgSpec memoized by raw spec string, so a
// repeated spelling skips materializing every cluster tree and topology.
// Only successes are cached: an invalid spec re-runs and fails with the
// same error every time.
func (s *Server) canonicalOrg(spec string) (string, error) {
	if v, ok := s.orgs.Get(spec); ok {
		return v.(string), nil
	}
	canon, err := canonicalOrgSpec(spec)
	if err != nil {
		return "", err
	}
	s.orgs.Put(spec, canon)
	return canon, nil
}

// resolveGeometry fills the default message geometry (the paper's M=32,
// L_m=256) for zero fields and rejects non-positive ones.
func resolveGeometry(flits, flitBytes int) (int, int, error) {
	d := units.Default()
	if flits == 0 {
		flits = d.MessageFlits
	}
	if flitBytes == 0 {
		flitBytes = d.FlitBytes
	}
	if flits <= 0 || flitBytes <= 0 {
		return 0, 0, fmt.Errorf("message geometry must be positive (flits=%d, flit_bytes=%d)", flits, flitBytes)
	}
	return flits, flitBytes, nil
}

// resolveTech applies the paper's §4 technology defaults under an optional
// override.
func resolveTech(override *sweep.Tech) sweep.Tech {
	if override != nil {
		return *override
	}
	d := units.Default()
	return sweep.Tech{AlphaNet: d.AlphaNet, AlphaSw: d.AlphaSw, BetaNet: d.BetaNet}
}

// checkLambda rejects non-positive and non-finite offered loads.
func checkLambda(lambda float64) error {
	if !(lambda > 0) || math.IsInf(lambda, 0) {
		return fmt.Errorf("lambda must be positive and finite, got %v", lambda)
	}
	return nil
}

// preparedModel is one cached, ready-to-evaluate analytic model: the spec
// parsing and topology precompute are done and the batched Grid evaluator
// carries reusable per-point scratch, so repeated analyze/compare requests
// against the same model pay only the evaluation itself. The Grid is not
// safe for concurrent use — mu serializes requests sharing the entry.
type preparedModel struct {
	mu   sync.Mutex
	grid *analytic.Grid
	// sat is the model's saturation point, searched once on first use
	// (satDone): it depends only on the model, never on λ. Guarded by mu.
	sat     float64
	satDone bool
}

// saturationPoint returns the model's saturation point, running the search
// on the first call. The caller must hold pm.mu.
func (pm *preparedModel) saturationPoint() float64 {
	if !pm.satDone {
		pm.sat = pm.grid.SaturationPoint(1e-6, 1, 1e-4)
		pm.satDone = true
	}
	return pm.sat
}

// modelKey canonically identifies a prepared model: everything that feeds
// analytic.New. org, links and topoAxis arrive in canonical spec syntax
// (links is the same string par.Tiers was parsed from; topoAxis is the
// sweep's canonical axis value, "" for the default fat trees); the
// technology floats render in hex so every bit counts.
func modelKey(model, org, links, topoAxis string, par units.Params) string {
	hf := func(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }
	key := "model=" + model +
		"|org=" + org +
		"|m=" + strconv.Itoa(par.MessageFlits) +
		"|lm=" + strconv.Itoa(par.FlitBytes) +
		"|links=" + links +
		"|an=" + hf(par.AlphaNet) + "|as=" + hf(par.AlphaSw) + "|bn=" + hf(par.BetaNet)
	// Default-omitting, like Job identity: fat-tree keys are unchanged from
	// before the topology axis existed.
	if topoAxis != "" {
		key += "|topo=" + topoAxis
	}
	return key
}

// preparedModel returns the cached evaluator for (model, org, links,
// topoAxis, par), building and caching it on miss. Concurrent misses may
// build twice; the last Put wins, which is benign (the entries are
// equivalent).
func (s *Server) preparedModel(model, org, links, topoAxis string, par units.Params) (*preparedModel, error) {
	key := modelKey(model, org, links, topoAxis, par)
	if v, ok := s.models.Get(key); ok {
		return v.(*preparedModel), nil
	}
	opts, err := sweep.ModelOptions(model)
	if err != nil {
		return nil, err
	}
	parsed, err := system.ParseOrganization(org)
	if err != nil {
		return nil, err
	}
	if err := system.ApplyTopologyAxis(&parsed, topoAxis); err != nil {
		return nil, err
	}
	sys, err := system.New(parsed)
	if err != nil {
		return nil, err
	}
	m, err := analytic.New(sys, par, opts)
	if err != nil {
		return nil, err
	}
	pm := &preparedModel{grid: analytic.NewGrid(m)}
	s.models.Put(key, pm)
	return pm, nil
}

// modelLatency evaluates the mean latency (Eq. 36) at lambda through the
// cached model. Saturation is an answer, not an error: it returns a NaN
// latency with saturated set.
func (s *Server) modelLatency(model, org, links, topoAxis string, par units.Params, lambda float64) (lat sweep.Float, saturated bool, err error) {
	pm, err := s.preparedModel(model, org, links, topoAxis, par)
	if err != nil {
		return 0, false, err
	}
	pm.mu.Lock()
	v, err := pm.grid.MeanLatency(lambda)
	pm.mu.Unlock()
	switch {
	case errors.Is(err, analytic.ErrSaturated):
		return sweep.Float(math.NaN()), true, nil
	case err != nil:
		return 0, false, err
	}
	return sweep.Float(v), false, nil
}
