package serve

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"

	"mcnet/internal/analytic"
	"mcnet/internal/sweep"
	"mcnet/internal/units"
)

// analyzeRequest is the body of POST /v1/analyze: one operating point for
// the pure analytic model (the paper's Eqs. 14–34). Specs use the same
// strings as the CLI tools: org in ParseOrganization syntax (with @icn1=/
// @ecn1= per-cluster suffixes), links in units.ParseTiers syntax.
type analyzeRequest struct {
	Org       string      `json:"org"`
	Lambda    float64     `json:"lambda"`
	Flits     int         `json:"flits,omitempty"`
	FlitBytes int         `json:"flit_bytes,omitempty"`
	Links     string      `json:"links,omitempty"`
	Tech      *sweep.Tech `json:"tech,omitempty"`
	Model     string      `json:"model,omitempty"`
}

// analyzeResponse echoes the canonicalized scenario and carries the model's
// answer. Latency is null when the model is saturated at the requested load;
// SaturationPoint is null when the model never saturates.
type analyzeResponse struct {
	Org             string      `json:"org"`
	Flits           int         `json:"flits"`
	FlitBytes       int         `json:"flit_bytes"`
	Links           string      `json:"links"`
	Model           string      `json:"model"`
	Lambda          float64     `json:"lambda"`
	Latency         sweep.Float `json:"latency"`
	Saturated       bool        `json:"saturated"`
	SaturationPoint sweep.Float `json:"saturation_point"`
}

// scenario is a canonicalized analyze request: the cache key of its rendered
// response is the canonical field rendering, so equivalent spellings
// ("org1" vs the expanded spec, "uniform" vs "") share one entry.
type scenario struct {
	org       string // canonical ParseOrganization syntax
	flits     int
	flitBytes int
	links     string // canonical tier spec, "" = homogeneous
	tech      sweep.Tech
	model     string
	lambda    float64
}

// key renders the scenario canonically; floats in hex so every bit counts.
func (c scenario) key() string {
	hf := func(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }
	return "org=" + c.org +
		"|m=" + strconv.Itoa(c.flits) +
		"|lm=" + strconv.Itoa(c.flitBytes) +
		"|links=" + c.links +
		"|model=" + c.model +
		"|an=" + hf(c.tech.AlphaNet) + "|as=" + hf(c.tech.AlphaSw) + "|bn=" + hf(c.tech.BetaNet) +
		"|lambda=" + hf(c.lambda)
}

// params materializes the scenario's technology parameters.
func (c scenario) params() (units.Params, error) {
	par := units.Default()
	par.AlphaNet, par.AlphaSw, par.BetaNet = c.tech.AlphaNet, c.tech.AlphaSw, c.tech.BetaNet
	tiers, err := units.ParseTiers(c.links)
	if err != nil {
		return par, err
	}
	par.Tiers = tiers
	par = par.WithMessage(c.flits, c.flitBytes)
	return par, par.Validate()
}

// canonicalScenario validates and canonicalizes an analyze request's
// fields, canonicalizing the org spec through canonOrg. Model "none" is
// rejected: an analyze without an analytic curve has nothing to answer.
func canonicalScenario(req analyzeRequest, canonOrg func(string) (string, error)) (scenario, error) {
	var c scenario
	var err error
	if c.org, err = canonOrg(req.Org); err != nil {
		return c, err
	}
	if c.flits, c.flitBytes, err = resolveGeometry(req.Flits, req.FlitBytes); err != nil {
		return c, err
	}
	tiers, err := units.ParseTiers(req.Links)
	if err != nil {
		return c, err
	}
	c.links = tiers.String()
	c.tech = resolveTech(req.Tech)

	c.model = req.Model
	if c.model == "" {
		c.model = "calibrated"
	}
	if c.model == "none" {
		return c, errors.New(`model "none" carries no analytic curve; use "calibrated" or "paper-literal"`)
	}
	if _, err := sweep.ModelOptions(c.model); err != nil {
		return c, err
	}

	if err := checkLambda(req.Lambda); err != nil {
		return c, err
	}
	c.lambda = req.Lambda

	if _, err := c.params(); err != nil {
		return c, err
	}
	return c, nil
}

// linksName makes the canonical empty (homogeneous) links spec explicit for
// response documents, mirroring Job.LinksName.
func linksName(links string) string {
	if links == "" {
		return "uniform"
	}
	return links
}

// handleAnalyze implements POST /v1/analyze: the synchronous model fast
// path. Rendered responses are LRU-cached and single-flighted by canonical
// scenario, so repeated identical requests are answered byte-identically
// without re-evaluating the model.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req analyzeRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	c, err := canonicalScenario(req, s.canonicalOrg)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key := c.key()
	if b, ok := s.resp.Get(key); ok {
		s.respHits.Add(1)
		w.Header().Set("X-Cache", "hit")
		writeRaw(w, http.StatusOK, b.([]byte))
		return
	}
	v, err, shared := s.flight.Do("analyze|"+key, func() (any, error) {
		if b, ok := s.resp.Get(key); ok {
			return b, nil
		}
		body, err := s.renderAnalyze(c)
		if err != nil {
			return nil, err
		}
		s.resp.Put(key, body)
		return body, nil
	})
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	// A response shared from another caller's in-flight render is a hit:
	// this request did not pay for a model evaluation.
	if shared {
		s.respHits.Add(1)
		w.Header().Set("X-Cache", "hit")
	} else {
		s.respMisses.Add(1)
		w.Header().Set("X-Cache", "miss")
	}
	writeRaw(w, http.StatusOK, v.([]byte))
}

// renderAnalyze evaluates the model at the scenario's operating point and
// renders the response document once; the bytes are what the cache stores.
func (s *Server) renderAnalyze(c scenario) ([]byte, error) {
	lat, saturated, satPoint, err := s.evalModel(c)
	if err != nil {
		return nil, err
	}
	resp := analyzeResponse{
		Org:             c.org,
		Flits:           c.flits,
		FlitBytes:       c.flitBytes,
		Links:           linksName(c.links),
		Model:           c.model,
		Lambda:          c.lambda,
		Latency:         lat,
		Saturated:       saturated,
		SaturationPoint: satPoint,
	}
	b, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// evalModel evaluates the scenario's mean latency (Eq. 36) at its load,
// plus the saturation point the figures stop at. Both run through the
// server's prepared-model cache under one lock hold. The saturation search
// probes dozens of λ points, so it runs once per prepared model; later
// loads reuse its answer and pay one evaluation each.
func (s *Server) evalModel(c scenario) (lat sweep.Float, saturated bool, satPoint sweep.Float, err error) {
	par, err := c.params()
	if err != nil {
		return 0, false, 0, err
	}
	// Topology selection rides inside the org spec itself (@topo=/@icn2topo=
	// suffixes survive canonicalOrgSpec), so the analyze path needs no
	// separate axis value.
	pm, err := s.preparedModel(c.model, c.org, c.links, "", par)
	if err != nil {
		return 0, false, 0, err
	}
	pm.mu.Lock()
	defer pm.mu.Unlock()
	v, err := pm.grid.MeanLatency(c.lambda)
	switch {
	case errors.Is(err, analytic.ErrSaturated):
		lat, saturated = sweep.Float(math.NaN()), true
	case err != nil:
		return 0, false, 0, err
	default:
		lat = sweep.Float(v)
	}
	satPoint = sweep.Float(pm.saturationPoint())
	return lat, saturated, satPoint, nil
}
