package bayesopt

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/linalg"
	"repro/internal/optimizer"
)

// Search is Falcon's Bayesian Optimization concurrency searcher. It
// satisfies optimizer.Search: every Next call folds the latest
// observation into a sliding window, refits the GP surrogate, lets the
// GP-Hedge portfolio pick an acquisition function, and proposes the
// integer concurrency that maximises it.
type Search struct {
	// MaxN bounds the search space [1, MaxN].
	MaxN int
	// Window is the maximum number of past observations retained in
	// the surrogate (the paper uses 20: cheap GP solves and forced
	// re-exploration under drift).
	Window int
	// InitSamples is the length of the uniform random sampling phase
	// (the paper uses 3).
	InitSamples int

	gp    *GP
	cands []*GP
	hedge *Hedge
	rng   *rand.Rand
	xs    []float64
	ys    []float64
	seen  int

	// Batched decision-path buffers: the integer candidate grid
	// [1, MaxN] and the posterior sweep over it. One set, owned here,
	// shared by whichever length-scale candidate wins model selection —
	// the steady-state decision allocates nothing.
	grid  []float64
	means []float64
	stds  []float64
}

var _ optimizer.Search = (*Search)(nil)

// New returns a BO searcher over [1, maxN] with the paper's defaults
// and a deterministic seed. It panics if maxN < 1.
func New(maxN int, seed int64) *Search {
	return NewWithSources(maxN, rand.NewSource(seed), rand.NewSource(seed+1))
}

// NewWithSources is New with caller-supplied random sources for the
// sampling phase and the Hedge portfolio. The pinned experiments go
// through New (math/rand's default source, byte-frozen outputs); fleet
// runs pass compact fastrand sources, whose ~8-byte state is what
// makes a million seeded searchers affordable. It panics if maxN < 1.
func NewWithSources(maxN int, src, hedgeSrc rand.Source) *Search {
	if maxN < 1 {
		panic(fmt.Sprintf("bayesopt: maxN %d must be ≥ 1", maxN))
	}
	rng := rand.New(src)
	// Length scale relative to the domain keeps the surrogate smooth
	// without washing out the peak. Model selection at each refit picks
	// among {base/2, base, base·2} by log marginal likelihood; each
	// candidate is a persistent GP so its Cholesky factor updates
	// incrementally as the window slides instead of refitting from
	// scratch.
	base := float64(maxN) / 6
	if base < 1 {
		base = 1
	}
	cands := []*GP{
		NewGP(base/2, 1.0, 0.02),
		NewGP(base, 1.0, 0.02),
		NewGP(base*2, 1.0, 0.02),
	}
	s := &Search{
		MaxN:        maxN,
		Window:      20,
		InitSamples: 3,
		gp:          cands[1],
		cands:       cands,
		hedge:       NewHedge(DefaultPortfolio(), 0.5, rand.New(hedgeSrc)),
		rng:         rng,
	}
	s.reserve()
	return s
}

// reserve sizes the searcher for its Window and MaxN in one block: the
// window buffers (one slot over, for the append that precedes an
// eviction), the candidate grid and its posterior sweep, each
// candidate's fit state, and one set of fit and sweep scratch that the
// candidates share — they fit one after another, and only the winner
// sweeps. Observations carry over.
func (s *Search) reserve() {
	w, m := s.Window, s.MaxN
	own := gpOwnSize(w, m)
	buf := make([]float64, 2*(w+1)+3*m+gpSharedSize(w, m)+len(s.cands)*own)
	s.xs = append(buf[:0:w+1], s.xs...)
	s.ys = append(buf[w+1:w+1:2*(w+1)], s.ys...)
	buf = buf[2*(w+1):]
	s.grid, s.means, s.stds = buf[:m:m], buf[m:2*m:2*m], buf[2*m:3*m:3*m]
	for i := range s.grid {
		s.grid[i] = float64(i + 1)
	}
	shared := buf[3*m : 3*m+gpSharedSize(w, m)]
	buf = buf[3*m+len(shared):]
	for _, g := range s.cands {
		buf = g.reserve(buf, shared, w, m)
	}
}

// Name implements optimizer.Search.
func (s *Search) Name() string { return "bayesian-optimization" }

// Next implements optimizer.Search.
func (s *Search) Next(obs optimizer.Observation) int {
	s.observe(float64(obs.N), obs.Utility)
	if s.seen < s.InitSamples {
		// Uniform random sampling phase (uniform prior, no bias).
		return 1 + s.rng.Intn(s.MaxN)
	}
	if err := s.fitWithModelSelection(); err != nil {
		// Degenerate window (should not happen with noise+jitter):
		// fall back to random exploration rather than halting.
		return 1 + s.rng.Intn(s.MaxN)
	}
	best := math.Inf(-1)
	for _, y := range s.ys {
		if y > best {
			best = y
		}
	}
	// Standardised "best" consistent with Score inputs: the posterior
	// sweep is in original units, so pass best in original units too.
	// One batched PredictInto over the whole grid replaces MaxN scalar
	// Predict calls; the portfolio then scores every acquisition from
	// this single (mean, std) sweep.
	s.ensureSweepBuffers()
	s.gp.PredictInto(s.grid, s.means, s.stds)
	return s.hedge.ProposeSweep(s.gp, 1, best, s.means, s.stds)
}

// ensureSweepBuffers sizes the candidate grid and sweep buffers to the
// current MaxN (ablations mutate it between calls).
func (s *Search) ensureSweepBuffers() {
	if len(s.grid) == s.MaxN {
		return
	}
	s.grid = make([]float64, s.MaxN)
	for i := range s.grid {
		s.grid[i] = float64(i + 1)
	}
	s.means = make([]float64, s.MaxN)
	s.stds = make([]float64, s.MaxN)
}

// PosteriorSweep writes the fitted surrogate's posterior over the
// integer grid [1, MaxN] into means and stds (each must have length
// MaxN) and reports whether a fitted surrogate exists yet. It exposes
// the batched decision-path primitive to callers above the optimizer
// interface — a multi-agent server can amortise one sweep across its
// own scoring instead of issuing MaxN scalar Predicts.
func (s *Search) PosteriorSweep(means, stds []float64) bool {
	if s.gp == nil || !s.gp.Fitted() {
		return false
	}
	if len(means) != s.MaxN || len(stds) != s.MaxN {
		panic(fmt.Sprintf("bayesopt: PosteriorSweep lengths %d,%d != MaxN %d", len(means), len(stds), s.MaxN))
	}
	s.ensureSweepBuffers()
	s.gp.PredictInto(s.grid, means, stds)
	return true
}

// fitWithModelSelection refits the surrogate, choosing the kernel
// length scale by log marginal likelihood over a small grid — the
// hyperparameter tuning §3.2 delegates to the BO layer. Each grid
// point is a persistent GP whose hyperparameters never change, so
// every refit takes the incremental O(n²) Cholesky path and the winner
// is already fitted — no final refit needed. With the usual three
// candidates, the factors are prepared first and the three alpha
// solves run as one interleaved pass (linalg.SolveInto3): each
// candidate's solve is a sequential dependency chain, and overlapping
// the three chains hides most of that latency. Per candidate the
// arithmetic is identical to a plain Fit.
func (s *Search) fitWithModelSelection() error {
	bestLML := math.Inf(-1)
	var bestGP *GP
	if len(s.cands) == 3 {
		c0, c1, c2 := s.cands[0], s.cands[1], s.cands[2]
		ok := [3]bool{
			c0.fitPrepare(s.xs, s.ys) == nil,
			c1.fitPrepare(s.xs, s.ys) == nil,
			c2.fitPrepare(s.xs, s.ys) == nil,
		}
		if ok[0] && ok[1] && ok[2] {
			linalg.SolveInto3(c0.chol, c1.chol, c2.chol,
				c0.alpha, c0.yStd, c1.alpha, c1.yStd, c2.alpha, c2.yStd)
		} else {
			for i, g := range s.cands {
				if ok[i] {
					g.solveAlpha()
				}
			}
		}
		for i, g := range s.cands {
			if !ok[i] {
				continue
			}
			if lml := g.LogMarginalLikelihood(); lml > bestLML {
				bestLML = lml
				bestGP = g
			}
		}
	} else {
		for _, g := range s.cands {
			if err := g.Fit(s.xs, s.ys); err != nil {
				continue
			}
			if lml := g.LogMarginalLikelihood(); lml > bestLML {
				bestLML = lml
				bestGP = g
			}
		}
	}
	if bestGP == nil {
		return fmt.Errorf("bayesopt: no length scale produced a valid fit")
	}
	s.gp = bestGP
	return nil
}

// observe appends an observation, evicting the oldest beyond Window.
// Eviction shifts in place (rather than reslicing) so the window
// buffers are allocated once; the shifted prefix is what lets the GP
// recognise the slide and update its factor incrementally. A Window
// shrunk between calls (ablations mutate it) evicts more than one
// point, which the GPs handle by refactoring; a raised one re-reserves.
func (s *Search) observe(x, y float64) {
	if math.IsNaN(y) || math.IsInf(y, 0) {
		return
	}
	if cap(s.xs) < s.Window+1 {
		s.reserve()
	}
	s.xs = append(s.xs, x)
	s.ys = append(s.ys, y)
	if drop := len(s.xs) - s.Window; drop > 0 {
		copy(s.xs, s.xs[drop:])
		copy(s.ys, s.ys[drop:])
		s.xs = s.xs[:s.Window]
		s.ys = s.ys[:s.Window]
	}
	s.seen++
}

// Observations returns copies of the current window (for tests and
// diagnostics).
func (s *Search) Observations() ([]float64, []float64) {
	return append([]float64(nil), s.xs...), append([]float64(nil), s.ys...)
}

// Hedge is the GP-Hedge acquisition portfolio: each round every
// acquisition nominates its argmax candidate; one nominee is drawn with
// probability softmax(η·gains); afterwards every acquisition's gain is
// incremented by the posterior mean at its own nominee. Exploration-
// exploitation balance is thereby tuned online, as §3.2 describes.
type Hedge struct {
	acqs  []Acquisition
	eta   float64
	gains []float64
	rng   *rand.Rand

	// nominees of the current round, kept to update gains next round
	// (and reused as the next round's scratch once consumed).
	lastNominees []int
	weights      []float64
	hasNominees  bool

	// stats shares per-point transcendental work across the portfolio
	// when scoring a sweep; muBuf/sdBuf are Propose's scalar-path
	// scratch for building one.
	stats sweepStats
	muBuf []float64
	sdBuf []float64
}

// NewHedge builds a portfolio with learning rate eta. It panics on an
// empty portfolio or non-positive eta.
func NewHedge(acqs []Acquisition, eta float64, rng *rand.Rand) *Hedge {
	if len(acqs) == 0 {
		panic("bayesopt: empty acquisition portfolio")
	}
	if eta <= 0 {
		panic(fmt.Sprintf("bayesopt: eta %v must be positive", eta))
	}
	return &Hedge{
		acqs:         acqs,
		eta:          eta,
		gains:        make([]float64, len(acqs)),
		rng:          rng,
		lastNominees: make([]int, len(acqs)),
		weights:      make([]float64, len(acqs)),
	}
}

// Propose returns the next integer point in [lo, hi] chosen by the
// portfolio against the fitted GP. It is the scalar-path entry: it
// evaluates the posterior point by point and delegates to
// ProposeSweep, so both paths share one scoring implementation.
func (h *Hedge) Propose(gp *GP, lo, hi int, best float64) int {
	m := hi - lo + 1
	if m < 0 {
		m = 0
	}
	if cap(h.muBuf) < m {
		h.muBuf = make([]float64, m)
		h.sdBuf = make([]float64, m)
	}
	mus, sds := h.muBuf[:m], h.sdBuf[:m]
	for x := lo; x <= hi; x++ {
		mus[x-lo], sds[x-lo] = gp.Predict(float64(x))
	}
	return h.ProposeSweep(gp, lo, best, mus, sds)
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
	// Update gains with the posterior means at last round's nominees —
	// the Hedge reward signal, normalised by the observed utility scale
	// so units cannot destabilise the weights.
	scale := math.Abs(best)
	if scale < 1e-12 {
		scale = 1e-12
	}
	if h.hasNominees {
		for i, x := range h.lastNominees {
			var mu float64
			if j := x - lo; j >= 0 && j < len(means) {
				mu = means[j]
			} else {
				mu, _ = gp.Predict(float64(x))
			}
			h.gains[i] += math.Tanh(mu / scale)
		}
	}

	// Each acquisition nominates its argmax over the sweep. The
	// previous nominees were consumed above, so their slice is reused.
	h.stats.reset(means, stds, best)
	nominees := h.lastNominees[:len(h.acqs)]
	for i, a := range h.acqs {
		var j int
		if ss, ok := a.(sweepScorer); ok {
			j = ss.argmaxSweep(&h.stats)
		} else {
			j = argmaxScore(a, means, stds, best)
		}
		nominees[i] = lo + j
	}
	h.lastNominees = nominees
	h.hasNominees = true

	// Softmax draw over gains.
	maxG := h.gains[0]
	for _, g := range h.gains[1:] {
		if g > maxG {
			maxG = g
		}
	}
	weights := h.weights[:len(h.gains)]
	sum := 0.0
	for i, g := range h.gains {
		w := math.Exp(h.eta * (g - maxG))
		weights[i] = w
		sum += w
	}
	r := h.rng.Float64() * sum
	for i, w := range weights {
		if r < w {
			return nominees[i]
		}
		r -= w
	}
	return nominees[len(nominees)-1]
}

// Gains returns a copy of the portfolio gains (diagnostics).
func (h *Hedge) Gains() []float64 { return append([]float64(nil), h.gains...) }
