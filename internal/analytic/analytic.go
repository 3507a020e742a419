// Package analytic implements the paper's contribution: the analytical model
// of mean message latency in heterogeneous multi-cluster systems (paper §3,
// Eqs. 3–36).
//
// # Structure of the model
//
// For a message source in cluster i the model combines:
//
//   - the distribution P(j, n) of the number of link-pairs crossed in an
//     m-port n-tree under uniform traffic (Eq. 4) and the resulting average
//     distance d_avg (Eqs. 8–9) — supplied by the tree package;
//
//   - per-channel message rates η for ICN1, ECN1 and ICN2 (Eqs. 10–12)
//     obtained by spreading each network's aggregate load over its channels;
//
//   - a backward recursion over the stages of a journey (Eqs. 16–18): the
//     mean service time of a channel at stage k equals the message transfer
//     time plus the mean waiting times at all later stages, where the wait
//     at a stage is ½·S·P_B with blocking probability P_B = η·S from the
//     two-state birth–death chain (Eq. 17, linearized as in the paper);
//
//   - an M/G/1 source queue (Eqs. 19–23) with the Draper–Ghosh variance
//     approximation σ² = (S − M·t_cn)² (Eq. 22);
//
//   - the tail-flit pipeline time R (Eqs. 24, 32);
//
//   - M/D/1 concentrator/dispatcher waits with deterministic service M·t_cs
//     (Eqs. 33–34);
//
//   - the probability mix ℓ_i = (1−P_o)·T_ICN1 + P_o·(T_ECN1&ICN2 + W_d)
//     (Eq. 35) and the size-weighted system mean (Eq. 36).
//
// # Interpretation options
//
// Two spots of the paper are typographically ambiguous in the available text
// (Eq. 7's ICN2 rate normalization and Eq. 33's concentrator arrival rate;
// see DESIGN.md §3). Options selects between the channel-count-consistent
// reading (default, calibrated against the simulator) and the paper-literal
// reading (kept for the ablation experiment).
//
// The model also supports per-cluster injection-rate factors (processor-
// power heterogeneity), a strict extension of the paper's assumption 3.
package analytic

import (
	"errors"
	"fmt"
	"math"

	"mcnet/internal/queueing"
	"mcnet/internal/system"
	"mcnet/internal/units"
)

// ConcArrivalMode selects the arrival rate used for the concentrator and
// dispatcher M/D/1 queues (Eq. 33).
type ConcArrivalMode int

const (
	// ConcPerEndpoint uses the physical per-device rates: the concentrator
	// of cluster i serves the cluster's outgoing flow N_i·P_o(i)·λ_i and the
	// dispatcher of cluster v serves v's incoming flow. This is the default;
	// it reproduces the simulator's dominant bottleneck.
	ConcPerEndpoint ConcArrivalMode = iota
	// ConcPairExtrapolated uses the pair-extrapolated per-concentrator rate
	// λ_I2(i,v)/C for both buffers, the closest defensible reading of the
	// paper's Eq. 33.
	ConcPairExtrapolated
)

// Options selects between interpretations of the ambiguous equations.
type Options struct {
	// ChannelFactor is the constant F in the denominators of the channel
	// rate equations (Eqs. 10–12). The paper uses 4; the directed-channel
	// count of an m-port n-tree (2nN channels for traffic of d_avg·λ link
	// crossings) corresponds to 2.
	ChannelFactor float64
	// ICN2PaperLiteral, when true, uses the pair-extrapolated *total* ICN2
	// load in Eq. 12's numerator without normalizing by the concentrator
	// count C, which is the literal OCR reading of Eqs. 7+12. The default
	// (false) divides by C so that η_I2 is a per-channel rate on the same
	// footing as Eqs. 10–11.
	ICN2PaperLiteral bool
	// ConcArrival selects the concentrator queue arrival rates.
	ConcArrival ConcArrivalMode
	// SourceAggregate, when true, feeds the source-queue M/G/1 (Eqs. 23, 30)
	// with the aggregate network arrival rates λ_I1 and λ_E1 of Eqs. 5–6,
	// the literal reading of "substitution of λ = λ_I1". The default (false)
	// uses the per-injection-channel rates ((1−P_o)·λ_i and P_o·λ_i): a
	// node's source queue physically receives only that node's messages.
	// The aggregate reading saturates the model a factor ≈2 before the
	// paper's own plotted traffic ranges, while the per-node reading puts
	// the model's saturation exactly where the paper's figures stop —
	// see ablation A in README "Reproducing the paper".
	SourceAggregate bool
	// ExactICN2Pairs replaces the distribution P(h, n_c) by the exact NCA
	// level of each cluster pair (i,v), a refinement the paper's model
	// averages away.
	ExactICN2Pairs bool
	// ConcServiceFeedback is a refinement beyond the paper: the
	// concentrator's effective service extends past M·t_cs by the blocking
	// the message's header suffers entering ICN2 (approximated by one
	// stage of Eq. 16, ½·η_I2·(M·t_cs)²). The paper's M/D/1 term ignores
	// this downstream coupling, which is one reason its model outlives the
	// simulator near saturation.
	ConcServiceFeedback bool
}

// DefaultOptions returns the calibrated defaults used by the experiments.
func DefaultOptions() Options {
	return Options{ChannelFactor: 4, ConcArrival: ConcPerEndpoint}
}

// PaperLiteralOptions returns the closest literal reading of the paper's
// equations, used by the interpretation ablation.
func PaperLiteralOptions() Options {
	return Options{
		ChannelFactor:    4,
		ICN2PaperLiteral: true,
		ConcArrival:      ConcPairExtrapolated,
		SourceAggregate:  true,
	}
}

// Model evaluates the analytical latency of one system. Create with New.
type Model struct {
	Sys *system.System
	Par units.Params
	Opt Options

	probJ [][]float64 // per cluster: ECN1 tree P(j, n_i), index j
	dAvg  []float64   // per cluster: ECN1 tree d_avg
	pOut  []float64   // per cluster: Eq. 13
	// ICN1 structural quantities come from the cluster's topology plugin:
	// distI1[i][d] is the probability an intra route crosses d channels,
	// dAvgI1 its mean, and etaChI1 the η normalization channel count. For
	// the default fat tree distI1[i][2j] == probJ[i][j] (odd entries zero)
	// and etaChI1 == n_i·N_i, so the evaluation reproduces the pre-plugin
	// j-indexed form bit for bit.
	distI1  [][]float64
	dAvgI1  []float64
	etaChI1 []float64
	// ICN2 structural quantities come from the global interconnect plugin:
	// dist2[d] is the route-length distribution over ordered cluster pairs
	// (for a fat-tree ICN2, the NCA distribution re-indexed at d = 2h),
	// dICN2 its mean, c2 the η normalization per terminal (= n_c for
	// trees), and dOf the exact per-pair route length (ExactICN2Pairs).
	dist2 []float64
	dICN2 float64
	c2    float64
	dOf   [][]int

	// Tier-resolved connection service times (Eqs. 14–15 evaluated per
	// network): per source cluster for ICN1/ECN1, global for the ICN2 switch
	// links and the concentrator/dispatcher links. With no link-class
	// overrides every entry equals the base vector's value and the model is
	// bit-identical to the single-technology form.
	tcnI1, tcsI1, mtcnI1, mtcsI1 []float64
	tcnE1, tcsE1, mtcnE1, mtcsE1 []float64
	tcsI2, mtcsI2                float64
	tcsConc, mtcsConc            float64
	// hetero records whether any tier deviates from the base vector; the
	// homogeneous path keeps the paper's original expressions (and their
	// exact floating-point evaluation order).
	hetero bool
}

// New precomputes the topology-dependent quantities of the model.
func New(sys *system.System, par units.Params, opt Options) (*Model, error) {
	if err := par.Validate(); err != nil {
		return nil, err
	}
	if opt.ChannelFactor <= 0 {
		return nil, fmt.Errorf("analytic: ChannelFactor %v must be positive", opt.ChannelFactor)
	}
	m := &Model{Sys: sys, Par: par, Opt: opt}
	m.probJ = make([][]float64, sys.C())
	m.dAvg = make([]float64, sys.C())
	m.pOut = make([]float64, sys.C())
	m.distI1 = make([][]float64, sys.C())
	m.dAvgI1 = make([]float64, sys.C())
	m.etaChI1 = make([]float64, sys.C())
	m.tcnI1 = make([]float64, sys.C())
	m.tcsI1 = make([]float64, sys.C())
	m.mtcnI1 = make([]float64, sys.C())
	m.mtcsI1 = make([]float64, sys.C())
	m.tcnE1 = make([]float64, sys.C())
	m.tcsE1 = make([]float64, sys.C())
	m.mtcnE1 = make([]float64, sys.C())
	m.mtcsE1 = make([]float64, sys.C())
	flits := float64(par.MessageFlits)
	for i := range sys.Clusters {
		shape := sys.Clusters[i].Shape
		m.probJ[i] = shape.ProbJ()
		m.dAvg[i] = shape.AvgDistance()
		m.pOut[i] = sys.POut(i)
		net := sys.Clusters[i].Net
		m.distI1[i] = net.RouteDist()
		m.dAvgI1[i] = net.AvgDistance()
		m.etaChI1[i] = net.EtaChannels()
		icn1 := par.ICN1Class()
		if c := sys.Clusters[i].ICN1; c != nil {
			icn1 = *c
		}
		ecn1 := par.ECN1Class()
		if c := sys.Clusters[i].ECN1; c != nil {
			ecn1 = *c
		}
		m.tcnI1[i] = icn1.Tcn(par.FlitBytes)
		m.tcsI1[i] = icn1.Tcs(par.FlitBytes)
		m.mtcnI1[i] = flits * m.tcnI1[i]
		m.mtcsI1[i] = flits * m.tcsI1[i]
		m.tcnE1[i] = ecn1.Tcn(par.FlitBytes)
		m.tcsE1[i] = ecn1.Tcs(par.FlitBytes)
		m.mtcnE1[i] = flits * m.tcnE1[i]
		m.mtcsE1[i] = flits * m.tcsE1[i]
	}
	m.tcsI2 = par.ICN2Class().Tcs(par.FlitBytes)
	m.mtcsI2 = flits * m.tcsI2
	m.tcsConc = par.ConcClass().Tcs(par.FlitBytes)
	m.mtcsConc = flits * m.tcsConc
	m.hetero = !par.Tiers.Homogeneous() || sys.LinkHeterogeneous()
	m.dist2 = sys.ICN2RouteDist()
	for d, p := range m.dist2 {
		m.dICN2 += float64(d) * p
	}
	m.c2 = sys.ICN2Net.EtaChannels() / float64(sys.ICN2Net.Nodes())
	m.dOf = make([][]int, sys.C())
	for i := range m.dOf {
		m.dOf[i] = make([]int, sys.C())
		for v := range m.dOf[i] {
			if v != i {
				m.dOf[i][v] = sys.ICN2Net.RouteLen(i, v)
			}
		}
	}
	return m, nil
}

// ClusterResult breaks the latency of one source cluster into the paper's
// terms.
type ClusterResult struct {
	POut float64
	// Intra-cluster journey (ICN1): source wait, network latency, tail time.
	WIntra, SIntra, RIntra float64
	TIntra                 float64
	// Inter-cluster journey (ECN1 + ICN2), averaged over destinations.
	WInter, SInter, RInter float64
	TInter                 float64
	// WConc is the mean concentrator+dispatcher wait W_d (Eq. 34).
	WConc float64
	// Latency is ℓ_i of Eq. 35.
	Latency float64
	// Saturated marks a cluster whose mix includes an unstable component.
	Saturated bool
}

// Result is the model's output for one offered traffic λ_g.
type Result struct {
	LambdaG     float64
	MeanLatency float64 // Eq. 36 (+Inf when saturated)
	PerCluster  []ClusterResult
	Saturated   bool
	// Bottleneck names the first component found unstable, e.g.
	// "source-queue(E,i=3,v=0)" — empty when not saturated.
	Bottleneck string
}

// ErrSaturated reports an operating point past the model's stability region.
var ErrSaturated = errors.New("analytic: operating point is saturated")

// chainService runs the backward stage recursion (Eqs. 16–18) for a K-stage
// journey and returns S_{0}. eta(k) supplies the channel rate at stage k and
// mtcs(k) the stage's message transfer time M·t_cs — a constant for journeys
// within one network, tier-indexed for merged inter-cluster journeys whose
// stages cross networks of different link technology. mtcn is the transfer
// time of the final (switch→node) stage. ok is false when any stage's
// utilization reaches 1.
func chainService(k int, eta func(int) float64, mtcs func(int) float64, mtcn float64) (s0 float64, ok bool) {
	sumW := 0.0
	s := 0.0
	for stage := k - 1; stage >= 0; stage-- {
		if stage == k-1 {
			s = mtcn
		} else {
			s = mtcs(stage) + sumW
		}
		if stage > 0 {
			e := eta(stage)
			if e*s >= 1 {
				return math.Inf(1), false
			}
			// P_B of Eq. 17 is the channel utilization η·S (DESIGN.md §3);
			// the check above keeps it below 1.
			sumW += 0.5 * s * (e * s)
		}
	}
	return s, true
}

// satKind names the component class that saturated inside a cluster or pair
// computation, so memoized results can be reused across clusters with
// identical inputs while the Bottleneck string still names the *actual*
// (i,v) indices of the instance being evaluated.
type satKind int8

const (
	satNone satKind = iota
	satChainI1
	satSourceI1
	satChainE
	satSourceE
	satConc
)

// satWhere renders the Bottleneck string of a saturation kind for the given
// cluster/pair indices (v is ignored for intra kinds).
func satWhere(k satKind, i, v int) string {
	switch k {
	case satChainI1:
		return fmt.Sprintf("channel-chain(ICN1,i=%d)", i)
	case satSourceI1:
		return fmt.Sprintf("source-queue(ICN1,i=%d)", i)
	case satChainE:
		return fmt.Sprintf("channel-chain(E,i=%d,v=%d)", i, v)
	case satSourceE:
		return fmt.Sprintf("source-queue(E,i=%d,v=%d)", i, v)
	case satConc:
		return fmt.Sprintf("concentrator(i=%d,v=%d)", i, v)
	}
	return ""
}

// fillRates computes the per-cluster aggregate rates at λ_g into the supplied
// slices (each of length C): lam is the per-node rate λ_i, outRate is
// N_i·P_o(i)·λ_i, and inRate is the incoming inter-cluster rate per cluster
// (for ConcPerEndpoint).
func (m *Model) fillRates(lambdaG float64, lam, outRate, inRate []float64) {
	sys := m.Sys
	n := float64(sys.TotalNodes())
	c := sys.C()
	for i := range sys.Clusters {
		lam[i] = lambdaG * sys.Clusters[i].RateFactor
		outRate[i] = float64(sys.Clusters[i].Nodes) * m.pOut[i] * lam[i]
	}
	for v := 0; v < c; v++ {
		inRate[v] = 0
		nv := float64(sys.Clusters[v].Nodes)
		for u := 0; u < c; u++ {
			if u == v {
				continue
			}
			nu := float64(sys.Clusters[u].Nodes)
			inRate[v] += outRate[u] * nv / (n - nu)
		}
	}
}

// intraResult is the ICN1 part of one cluster's latency (Eqs. 22–25), or the
// saturation kind when unstable.
type intraResult struct {
	w, s, r, t float64
	sat        satKind
}

// intraCluster evaluates the intra-cluster (ICN1) journey of source cluster i
// at per-node rate lamI: the whole journey stays inside cluster i's ICN1, so
// every stage uses that network's link class. The journey-length mix comes
// from the topology's route distribution — a route of d channels has d−1
// blocking stages and a tail pipeline of d−2 switch links plus the final
// node link, which for the fat tree (d = 2j) is exactly the paper's Eqs.
// 24–25 and for other topologies the same stage equations over their own
// distance distribution.
func (m *Model) intraCluster(i int, lamI float64) intraResult {
	cl := &m.Sys.Clusters[i]
	nNodes := float64(cl.Nodes)
	f := m.Opt.ChannelFactor
	mtcnI1, mtcsI1 := m.mtcnI1[i], m.mtcsI1[i]
	tcnI1, tcsI1 := m.tcnI1[i], m.tcsI1[i]
	lamI1 := nNodes * (1 - m.pOut[i]) * lamI // Eq. 5
	etaI1 := m.dAvgI1[i] * lamI1 / (f * m.etaChI1[i])
	dist := m.distI1[i]
	var res intraResult
	for d := 2; d < len(dist); d++ {
		pd := dist[d]
		if pd == 0 {
			continue
		}
		s0, ok := chainService(d-1, func(int) float64 { return etaI1 },
			func(int) float64 { return mtcsI1 }, mtcnI1)
		if !ok {
			res.sat = satChainI1
			return res
		}
		res.s += pd * s0
		res.r += pd * (float64(d-2)*tcsI1 + tcnI1)
	}
	sigma2 := sq(res.s - mtcnI1) // Eq. 22
	lamSrcI1 := (1 - m.pOut[i]) * lamI
	if m.Opt.SourceAggregate {
		lamSrcI1 = lamI1
	}
	w, err := queueing.MG1Wait(lamSrcI1, res.s, sigma2)
	if err != nil {
		res.sat = satSourceI1
		return res
	}
	res.w = w
	res.t = res.w + res.s + res.r // Eq. 25
	return res
}

// pairResult is the inter-cluster contribution of one destination cluster v
// to source cluster i's average (Eqs. 26–34), or the saturation kind.
type pairResult struct {
	w, s, r, conc float64
	sat           satKind
}

// interPair evaluates the merged inter-cluster journey i→v at per-node rate
// lamI. The journey crosses three link technologies: the ascent through
// cluster i's ECN1, the ICN2 traverse (whose first and last hops are the
// concentrator↔ICN2 links), and the descent through cluster v's ECN1 ending
// on its switch→node link.
func (m *Model) interPair(i, v int, lamI float64, outRate, inRate []float64) pairResult {
	sys := m.Sys
	cl := &sys.Clusters[i]
	clv := &sys.Clusters[v]
	ni := cl.Levels
	nNodes := float64(cl.Nodes)
	f := m.Opt.ChannelFactor
	n := float64(sys.TotalNodes())
	c := sys.C()
	mtcsE1i := m.mtcsE1[i]
	mtcnE1v, mtcsE1v := m.mtcnE1[v], m.mtcsE1[v]
	lamE1 := outRate[i] + outRate[v] // Eq. 6
	etaE1 := m.dAvg[i] * lamE1 / (f * float64(ni) * nNodes)
	// Eq. 7: pair-extrapolated total ICN2 load; Eq. 12 normalization per
	// Options. c2 is the interconnect's η channel count per terminal — the
	// tree level count n_c of the paper's Eq. 12, generalized.
	lamI2Total := lamE1 * n / (nNodes + float64(clv.Nodes))
	lamI2PerConc := lamI2Total / float64(c)
	var etaI2 float64
	if m.Opt.ICN2PaperLiteral {
		etaI2 = lamI2Total * m.dICN2 / (f * m.c2)
	} else {
		etaI2 = lamI2PerConc * m.dICN2 / (f * m.c2)
	}

	var pr pairResult
	var se, re float64
	forEachJLD(m, i, v, func(j, l, d2 int, p float64) bool {
		k := j + l + d2 - 1
		s0, ok := chainService(k, func(stage int) float64 {
			// Eq. 29: the d2 ICN2 stages sit between the ascent (j−1
			// switch-switch hops) and the final descent.
			if stage >= j-1 && stage < j+d2-1 {
				return etaI2
			}
			return etaE1
		}, func(stage int) float64 {
			// Tier-indexed Eq. 16 service: stages j−1 and j+d2−2 are the
			// concentrator↔ICN2 entry/exit links, the stages between them
			// ICN2 switch links, everything before the source ECN1,
			// everything after the destination ECN1.
			switch {
			case stage < j-1:
				return mtcsE1i
			case stage == j-1 || stage == j+d2-2:
				return m.mtcsConc
			case stage < j+d2-1:
				return m.mtcsI2
			default:
				return mtcsE1v
			}
		}, mtcnE1v)
		if !ok {
			pr.sat = satChainE
			return false
		}
		se += p * s0
		// Eq. 32: the tail pipeline crosses k−1 switch-class links and the
		// final node link. With heterogeneous tiers the sum splits per
		// network; the homogeneous form is kept verbatim so the default
		// evaluation order (and its results) is unchanged.
		if m.hetero {
			re += p * (float64(j-1)*m.tcsE1[i] + 2*m.tcsConc +
				float64(d2-2)*m.tcsI2 + float64(l-1)*m.tcsE1[v] + m.tcnE1[v])
		} else {
			re += p * (float64(k-1)*m.tcsE1[i] + m.tcnE1[v])
		}
		return true
	})
	if pr.sat != satNone {
		return pr
	}
	lamSrcE := m.pOut[i] * lamI
	if m.Opt.SourceAggregate {
		lamSrcE = lamE1
	}
	we, err := queueing.MG1Wait(lamSrcE, se, sq(se-mtcnE1v)) // Eq. 30
	if err != nil {
		pr.sat = satSourceE
		return pr
	}
	// Eq. 33–34: concentrator + dispatcher waits. The service is
	// deterministic M·t_cs of the concentrator links' class, optionally
	// extended by the ICN2 entry blocking at that tier's M·t_cs
	// (ConcServiceFeedback refinement).
	concService := m.mtcsConc
	concVariance := 0.0
	if m.Opt.ConcServiceFeedback {
		extra := 0.5 * etaI2 * m.mtcsI2 * m.mtcsI2
		concService += extra
		concVariance = extra * extra // blocking is bursty, not fixed
	}
	var wConc float64
	switch m.Opt.ConcArrival {
	case ConcPerEndpoint:
		wOut, err1 := queueing.MG1Wait(outRate[i], concService, concVariance)
		wIn, err2 := queueing.MG1Wait(inRate[v], concService, concVariance)
		if err1 != nil || err2 != nil {
			pr.sat = satConc
			return pr
		}
		wConc = wOut + wIn
	case ConcPairExtrapolated:
		ws, err := queueing.MG1Wait(lamI2PerConc, concService, concVariance)
		if err != nil {
			pr.sat = satConc
			return pr
		}
		wConc = 2 * ws
	}
	pr.w, pr.s, pr.r, pr.conc = we, se, re, wConc
	return pr
}

// Evaluate computes the model at per-node generation rate λ_g. The Result is
// fully populated even when saturated (with +Inf latencies); the error is
// ErrSaturated in that case.
func (m *Model) Evaluate(lambdaG float64) (Result, error) {
	return m.evaluate(lambdaG, nil)
}

// evaluate is the shared driver behind Model.Evaluate and Grid.Evaluate: with
// a nil Grid it allocates fresh rate slices and computes every cluster and
// pair directly; with a Grid it reuses the grid's scratch and consults its
// per-λ memo, which returns bit-identical values because equal memo keys
// capture every floating-point input of the corresponding computation.
func (m *Model) evaluate(lambdaG float64, g *Grid) (Result, error) {
	if lambdaG < 0 || math.IsNaN(lambdaG) {
		return Result{}, fmt.Errorf("analytic: invalid λ_g %v", lambdaG)
	}
	sys := m.Sys
	res := Result{LambdaG: lambdaG, PerCluster: make([]ClusterResult, sys.C())}
	c := sys.C()

	var lam, outRate, inRate []float64
	if g != nil {
		lam, outRate, inRate = g.beginPoint()
	} else {
		lam = make([]float64, c)
		outRate = make([]float64, c)
		inRate = make([]float64, c)
	}
	m.fillRates(lambdaG, lam, outRate, inRate)

	saturate := func(cr *ClusterResult, where string) {
		cr.Saturated = true
		cr.Latency = math.Inf(1)
		if !res.Saturated {
			res.Saturated = true
			res.Bottleneck = where
		}
	}

	for i := range sys.Clusters {
		cr := &res.PerCluster[i]
		cr.POut = m.pOut[i]

		var ir intraResult
		if g != nil {
			ir = g.intraCluster(i, lam[i])
		} else {
			ir = m.intraCluster(i, lam[i])
		}
		// The partial S/R sums are kept even when saturated, matching the
		// original single-function evaluation.
		cr.SIntra, cr.RIntra = ir.s, ir.r
		if ir.sat != satNone {
			saturate(cr, satWhere(ir.sat, i, 0))
			continue
		}
		cr.WIntra, cr.TIntra = ir.w, ir.t

		// Inter-cluster (ECN1 + ICN2), averaged over destinations v. The
		// per-pair results accumulate in ascending v order — the same
		// floating-point addition order as the original single-loop form.
		var sumT, sumW, sumS, sumR, sumConc float64
		sat := satNone
		satV := 0
		for v := 0; v < c; v++ {
			if v == i {
				continue
			}
			var pr pairResult
			if g != nil {
				pr = g.interPair(i, v, lam[i], outRate, inRate)
			} else {
				pr = m.interPair(i, v, lam[i], outRate, inRate)
			}
			if pr.sat != satNone {
				sat, satV = pr.sat, v
				break
			}
			sumW += pr.w
			sumS += pr.s
			sumR += pr.r
			sumT += pr.w + pr.s + pr.r
			sumConc += pr.conc
		}
		if sat != satNone {
			saturate(cr, satWhere(sat, i, satV))
			continue
		}
		inv := 1 / float64(c-1)
		cr.WInter, cr.SInter, cr.RInter = sumW*inv, sumS*inv, sumR*inv
		cr.TInter = sumT * inv // Eq. 31
		cr.WConc = sumConc * inv
		// Eq. 35.
		cr.Latency = (1-m.pOut[i])*cr.TIntra + m.pOut[i]*(cr.TInter+cr.WConc)
	}

	// Eq. 36: weight clusters by their share of generated messages (equal to
	// N_i/N for homogeneous rates).
	var totalWeight float64
	for i := range sys.Clusters {
		totalWeight += float64(sys.Clusters[i].Nodes) * sys.Clusters[i].RateFactor
	}
	for i := range sys.Clusters {
		wgt := float64(sys.Clusters[i].Nodes) * sys.Clusters[i].RateFactor / totalWeight
		res.MeanLatency += wgt * res.PerCluster[i].Latency
	}
	if res.Saturated {
		res.MeanLatency = math.Inf(1)
		return res, ErrSaturated
	}
	return res, nil
}

// forEachJLD iterates the (j, l, d₂) journey-shape distribution of an
// inter-cluster message from i to v with its probability (Eq. 27): ECN1
// ascent height j, descent height l, and ICN2 route length d₂ (2h for a
// fat-tree ICN2, whose distribution makes this the paper's (j, l, h)
// enumeration verbatim), honoring the ExactICN2Pairs option. The callback
// returns false to stop early.
func forEachJLD(m *Model, i, v int, fn func(j, l, d2 int, p float64) bool) {
	pj := m.probJ[i]
	pl := m.probJ[v]
	for j := 1; j < len(pj); j++ {
		if pj[j] == 0 {
			continue
		}
		for l := 1; l < len(pl); l++ {
			if pl[l] == 0 {
				continue
			}
			if m.Opt.ExactICN2Pairs {
				if !fn(j, l, m.dOf[i][v], pj[j]*pl[l]) {
					return
				}
				continue
			}
			for d2 := 2; d2 < len(m.dist2); d2++ {
				if m.dist2[d2] == 0 {
					continue
				}
				if !fn(j, l, d2, pj[j]*pl[l]*m.dist2[d2]) {
					return
				}
			}
		}
	}
}

func sq(x float64) float64 { return x * x }

// MeanLatency is a convenience wrapper returning only Eq. 36's value.
func (m *Model) MeanLatency(lambdaG float64) (float64, error) {
	res, err := m.Evaluate(lambdaG)
	return res.MeanLatency, err
}

// SaturationPoint locates the offered traffic at which the model first
// saturates, by doubling search followed by bisection to the given relative
// tolerance. It returns +Inf if no saturation is found below limit. The
// probes run through a throwaway Grid, which is bit-identical to Evaluate
// and gives each call its own scratch, so concurrent calls stay safe.
func (m *Model) SaturationPoint(start, limit, tol float64) float64 {
	return NewGrid(m).SaturationPoint(start, limit, tol)
}

// SaturationPoint is the batched counterpart of Model.SaturationPoint: the
// search probes the same λ sequence through the grid's evaluator, so it
// returns the point the point-wise Evaluate would, reusing the grid's
// scratch.
func (g *Grid) SaturationPoint(start, limit, tol float64) float64 {
	return saturationPoint(g.Evaluate, start, limit, tol)
}

func saturationPoint(eval func(float64) (Result, error), start, limit, tol float64) float64 {
	if start <= 0 {
		start = 1e-9
	}
	lo := 0.0
	hi := start
	for {
		if _, err := eval(hi); errors.Is(err, ErrSaturated) {
			break
		}
		lo = hi
		hi *= 2
		if hi > limit {
			return math.Inf(1)
		}
	}
	for hi-lo > tol*hi {
		mid := (lo + hi) / 2
		if _, err := eval(mid); errors.Is(err, ErrSaturated) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return (lo + hi) / 2
}
