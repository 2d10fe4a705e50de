package bayesopt

import "math/rand"

// The standalone GP's point prediction and log evidence, and the
// portfolio's proposal from a GP, are the reference the searcher's own
// fit-and-sweep path (Search.Next) is checked against; nothing in the
// simulator calls them.

// Predict returns the posterior mean and standard deviation at x, in
// the original target units. Predicting before a successful Fit panics
// — a sequencing bug in the caller.
func (g *GP) Predict(x float64) (mean, std float64) {
	p := g.readPost()
	return p.predictAt(x)
}

// LogMarginalLikelihood returns the log evidence of the fitted model,
//
//	log p(y|X) = −½·yᵀα − Σᵢ log Lᵢᵢ − n/2·log 2π
//
// (in standardised target units). Higher is better; Search uses it to
// select the kernel length scale at each refit. It panics before a
// successful Fit. The yᵀα quadratic term uses the standardised targets
// cached by Fit, so no kernel evaluation happens here.
func (g *GP) LogMarginalLikelihood() float64 {
	if !g.Fitted() {
		panic("bayesopt: LogMarginalLikelihood before Fit")
	}
	return logMarginal(g.yStd, g.alpha, &g.chol)
}

// Observations returns copies of the current window (for tests and
// diagnostics).
func (s *Search) Observations() ([]float64, []float64) {
	return append([]float64(nil), s.xs...), append([]float64(nil), s.ys...)
}

// NewHedge builds a portfolio with learning rate eta. It panics on an
// empty portfolio or non-positive eta.
func NewHedge(acqs []Acquisition, eta float64, rng *rand.Rand) *Hedge {
	h := new(Hedge)
	h.init(acqs, eta, rng)
	return h
}

// Propose returns the next integer point in [lo, hi] chosen by the
// portfolio against the fitted GP. It is the scalar-path entry: it
// evaluates the posterior point by point, in one borrowed buffer for
// all points, and delegates to ProposeSweep, so both paths share one
// scoring implementation.
func (h *Hedge) Propose(gp *GP, lo, hi int, best float64) int {
	m := hi - lo + 1
	if m < 0 {
		m = 0
	}
	p := gp.readPost()
	n := 0
	if m > 0 {
		if p.alpha == nil {
			panic("bayesopt: Predict before Fit")
		}
		n = len(p.xs)
	}
	sc := borrow(2*m + 2*n + statsSize(m, len(h.acqs)))
	defer sc.release()
	mus, buf := carve(sc.buf, m)
	sds, buf := carve(buf, m)
	kv, buf := carve(buf, 2*n)
	for x := lo; x <= hi; x++ {
		mus[x-lo], sds[x-lo] = p.predict(float64(x), kv)
	}
	return h.proposeSweep(&p, lo, best, mus, sds, &sc.stats, buf)
}

// ProposeSweep returns the next integer point in [lo, lo+len(means)−1]
// chosen by the portfolio from a precomputed posterior sweep: means[j]
// and stds[j] are the posterior at integer point lo+j, as produced by
// GP.PredictInto over the candidate grid. The gp is consulted only for
// last-round nominees that fall outside the sweep (the domain shrank
// between rounds); everything else — gain updates, every acquisition's
// argmax — reads the sweep, with transcendentals shared across
// acquisitions via sweepStats. Selection is bitwise identical to the
// scalar path: same scores, same first-strict-max tie-breaking over x
// ascending.
func (h *Hedge) ProposeSweep(gp *GP, lo int, best float64, means, stds []float64) int {
	sc := borrow(statsSize(len(means), len(h.acqs)))
	defer sc.release()
	p := gp.readPost()
	return h.proposeSweep(&p, lo, best, means, stds, &sc.stats, sc.buf)
}

// Gains returns a copy of the portfolio gains (diagnostics): zeros
// before the first round.
func (h *Hedge) Gains() []float64 {
	g := make([]float64, len(h.acqs))
	copy(g, h.gains)
	return g
}
