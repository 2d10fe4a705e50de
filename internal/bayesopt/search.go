package bayesopt

import (
	"errors"
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
//
// A searcher keeps only what outlives a decision: the window, the
// three length-scale candidates' factors and kernel tables, the
// winner's weights and the portfolio's gains. Everything a decision
// only works in — standardised targets, kernel rows, update vectors,
// the losers' weights, the posterior sweep — is borrowed per call from
// a free list shared by all searchers (see scratch).
//
// What outlives a decision lives from the first observation to
// Release: construction allocates no window, the first Next reserves
// it in one block, and Release — called when the session the searcher
// decides for ends — drops it. Next after Release panics.
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

	// cands are the length-scale candidates {base/2, base, base·2},
	// each a persistent factor that updates incrementally as the
	// window slides; win indexes the one the last refit selected (−1
	// before the first, after a failed one and after Release).
	cands [3]candidate
	win   int8
	// synced records that the last refit left all three candidates
	// fitted on fitXs, so the next one can update them together;
	// released, that Release has run.
	synced   bool
	released bool
	hedge    Hedge
	rng      *rand.Rand
	seen     int

	// xs and ys are the observation window, one slot over for the
	// append that precedes an eviction. fitXs is the window the
	// candidates were last fitted on, and alpha, meanY and stdY the
	// selected candidate's weights and target scaling: the fit output
	// a later PosteriorSweep reads, shared by the three candidates.
	xs, ys, fitXs, alpha []float64
	meanY, stdY          float64
}

// Every candidate has the searcher's signal and noise variances (of
// standardised targets); only their length scales differ.
const (
	searchSignalVar = 1.0
	searchNoiseVar  = 0.02
)

// candidate is one length scale's share of a Search: its factor over
// fitXs and its integer-distance kernel table. Everything else a fit
// holds lives once on the Search.
type candidate struct {
	ls   float64
	tab  []float64
	chol linalg.Chol
}

// kern is the candidate's kernel over its own table.
func (c *candidate) kern() rbf { return rbf{c.ls, searchSignalVar, &c.tab} }

var _ optimizer.Search = (*Search)(nil)

// New returns a BO searcher over [1, maxN] with the paper's defaults
// and a deterministic seed. It panics if maxN < 1.
func New(maxN int, seed int64) *Search {
	return NewWithSources(maxN, rand.NewSource(seed), rand.NewSource(seed+1))
}

// defaultPortfolio is the acquisition set every searcher's portfolio
// reads; acquisitions are immutable values, so one copy serves all.
var defaultPortfolio = DefaultPortfolio()

// NewWithSources is New with caller-supplied random sources for the
// sampling phase and the Hedge portfolio. The pinned experiments go
// through New (math/rand's default source, byte-frozen outputs); fleet
// runs pass compact fastrand sources, whose ~8-byte state is what
// makes a million seeded searchers affordable. It panics if maxN < 1.
func NewWithSources(maxN int, src, hedgeSrc rand.Source) *Search {
	if maxN < 1 {
		panic(fmt.Sprintf("bayesopt: maxN %d must be ≥ 1", maxN))
	}
	s := &Search{
		MaxN:        maxN,
		Window:      20,
		InitSamples: 3,
		win:         -1,
		rng:         rand.New(src),
	}
	// Length scale relative to the domain keeps the surrogate smooth
	// without washing out the peak. Model selection at each refit picks
	// among {base/2, base, base·2} by log marginal likelihood.
	base := float64(maxN) / 6
	if base < 1 {
		base = 1
	}
	for i, ls := range [3]float64{base / 2, base, base * 2} {
		s.cands[i].ls = ls
	}
	s.hedge.init(defaultPortfolio, 0.5, rand.New(hedgeSrc))
	return s
}

// reserve sizes the searcher for its Window and MaxN in one block: the
// window buffers, the fitted inputs and the winner's weights, and each
// candidate's Window-row packed factor and MaxN-entry kernel table.
// Contents carry over. observe calls it at the first observation and
// whenever Window outgrows the block.
func (s *Search) reserve() {
	w, m := s.Window, s.MaxN
	tri := linalg.PackedSize(w)
	buf := make([]float64, 2*(w+1)+2*w+len(s.cands)*(tri+m))
	s.xs = append(buf[:0:w+1], s.xs...)
	s.ys = append(buf[w+1:w+1:2*(w+1)], s.ys...)
	buf = buf[2*(w+1):]
	s.fitXs = append(buf[:0:w], s.fitXs...)
	s.alpha = append(buf[w:w:2*w], s.alpha...)
	buf = buf[2*w:]
	for i := range s.cands {
		c := &s.cands[i]
		c.chol.Rehome(buf[:0:tri])
		c.tab = append(buf[tri:tri:tri+m], c.tab...)
		buf = buf[tri+m:]
	}
}

// Release drops what the searcher holds between decisions — the
// window, the fitted inputs, the weights, the candidates' factors and
// kernel tables and the portfolio's gains — once the session it
// decides for has ended. A released searcher must not decide again:
// Next panics rather than start a fresh window. Repeated calls are
// no-ops.
func (s *Search) Release() {
	for i := range s.cands {
		s.cands[i] = candidate{ls: s.cands[i].ls}
	}
	s.win, s.synced, s.released = -1, false, true
	s.xs, s.ys, s.fitXs, s.alpha = nil, nil, nil, nil
	s.hedge.gains, s.hedge.lastNominees = nil, nil
}

// post is what a prediction reads of the selected candidate's fit; the
// caller checks one was selected (win ≥ 0).
func (s *Search) post() posterior {
	c := &s.cands[s.win]
	return posterior{c.kern(), &c.chol, s.fitXs, s.alpha, s.meanY, s.stdY}
}

// scratchSize is the scratch one decision borrows: the refit's
// standardised targets, three weight vectors and three kernel rows
// (which double as DropFirst3's update vectors); once the winner's
// weights are kept, the sweep reuses the same floats for its means,
// stds, grid, cross-covariance block, acquisition statistics and
// portfolio weights.
func (s *Search) scratchSize() int {
	w, m := max(s.Window, len(s.xs)), s.MaxN
	return max(7*w, 3*m+w*m+statsSize(m, len(s.hedge.acqs)))
}

// Name implements optimizer.Search.
func (s *Search) Name() string { return "bayesian-optimization" }

// Next implements optimizer.Search.
func (s *Search) Next(obs optimizer.Observation) int {
	if s.released {
		panic("bayesopt: Next after Release")
	}
	s.observe(float64(obs.N), obs.Utility)
	if s.seen < s.InitSamples {
		// Uniform random sampling phase (uniform prior, no bias).
		return 1 + s.rng.Intn(s.MaxN)
	}
	sc := borrow(s.scratchSize())
	defer sc.release()
	if err := s.fitWithModelSelection(sc.buf); err != nil {
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
	// One batched sweep over the whole grid replaces MaxN scalar
	// Predict calls; the portfolio then scores every acquisition from
	// this single (mean, std) sweep.
	m := s.MaxN
	means, buf := carve(sc.buf, m)
	stds, buf := carve(buf, m)
	p := s.post()
	buf = s.sweep(&p, means, stds, buf)
	return s.hedge.proposeSweep(&p, 1, best, means, stds, &sc.stats, buf)
}

// sweep writes p's posterior over the integer grid [1, MaxN] into
// means and stds, working in buf, and returns what it did not use of
// buf.
func (s *Search) sweep(p *posterior, means, stds, buf []float64) []float64 {
	grid, buf := carve(buf, s.MaxN)
	for i := range grid {
		grid[i] = float64(i + 1)
	}
	b, buf := carve(buf, len(p.xs)*s.MaxN)
	p.predictInto(grid, means, stds, b)
	return buf
}

// PosteriorSweep writes the fitted surrogate's posterior over the
// integer grid [1, MaxN] into means and stds (each must have length
// MaxN) and reports whether a fitted surrogate exists yet. It exposes
// the batched decision-path primitive to callers above the optimizer
// interface — a multi-agent server can amortise one sweep across its
// own scoring instead of issuing MaxN scalar Predicts.
func (s *Search) PosteriorSweep(means, stds []float64) bool {
	if s.win < 0 {
		return false
	}
	if len(means) != s.MaxN || len(stds) != s.MaxN {
		panic(fmt.Sprintf("bayesopt: PosteriorSweep lengths %d,%d != MaxN %d", len(means), len(stds), s.MaxN))
	}
	sc := borrow(s.MaxN * (len(s.fitXs) + 1))
	p := s.post()
	s.sweep(&p, means, stds, sc.buf)
	sc.release()
	return true
}

// fitWithModelSelection refits the surrogate, choosing the kernel
// length scale by log marginal likelihood over the three candidates —
// the hyperparameter tuning §3.2 delegates to the BO layer — working in
// buf (scratchSize floats). It is one refit for all three:
//
//   - the targets are standardised once, into a buffer the candidates
//     share (their values would be identical);
//   - the window is compared with fitXs once: when the last refit left
//     all three candidates fitted (synced) and the window grew or slid
//     by one, the three factors drop their oldest row together
//     (linalg.DropFirst3) and append the newest together
//     (linalg.AppendRow3), with kernel rows read straight from each
//     candidate's integer-distance table;
//   - otherwise — the first fit, a window that moved some other way,
//     or after a candidate failed — every candidate refactors, as does
//     any candidate whose append is rejected;
//   - the three alphas are solved in one interleaved pass
//     (linalg.SolveInto3) and only the winner's is kept.
//
// Per candidate the arithmetic is exactly GP.Fit's, so the winner and
// its posterior are bitwise those of three independent fits. A refit
// in which no candidate fits selects none (win −1).
func (s *Search) fitWithModelSelection(buf []float64) error {
	xs, n := s.xs, len(s.xs)
	if n == 0 {
		return fmt.Errorf("bayesopt: Fit with no observations")
	}
	yStd, buf := carve(buf, n)
	var alpha, rows [3][]float64
	for c := range alpha {
		alpha[c], buf = carve(buf, n)
	}
	update := buf[:3*n]
	for c := range rows {
		rows[c], buf = carve(buf, n)
	}
	mean, std := standardise(yStd, s.ys)

	c0, c1, c2 := &s.cands[0].chol, &s.cands[1].chol, &s.cands[2].chol
	errs := [3]error{errRefactor, errRefactor, errRefactor}
	switch {
	case s.synced && extendsByOne(s.fitXs, xs):
		errs = s.appendRows(rows, xs)
	case s.synced && slidesByOne(s.fitXs, xs):
		linalg.DropFirst3(c0, c1, c2, update)
		errs = s.appendRows(rows, xs)
	}
	s.fitXs = append(s.fitXs[:0], xs...)
	s.synced = true
	for c := range s.cands {
		if g := &s.cands[c]; errs[c] != nil {
			errs[c] = refactor(&g.chol, g.kern(), searchNoiseVar, xs, rows[c])
		}
		s.synced = s.synced && errs[c] == nil
	}

	if s.synced {
		linalg.SolveInto3(c0, c1, c2, alpha[0], yStd, alpha[1], yStd, alpha[2], yStd)
	} else {
		for c := range s.cands {
			if errs[c] == nil {
				s.cands[c].chol.SolveInto(alpha[c], yStd)
			}
		}
	}
	bestLML, win := math.Inf(-1), -1
	for c := range s.cands {
		if errs[c] != nil {
			continue
		}
		if lml := logMarginal(yStd, alpha[c], &s.cands[c].chol); lml > bestLML {
			bestLML, win = lml, c
		}
	}
	s.win = int8(win)
	if win < 0 {
		return fmt.Errorf("bayesopt: no length scale produced a valid fit")
	}
	s.alpha = append(s.alpha[:0], alpha[win]...)
	s.meanY, s.stdY = mean, std
	return nil
}

// errRefactor marks a candidate whose factor must be rebuilt from
// scratch.
var errRefactor = errors.New("bayesopt: refactor")

// appendRows appends the newest observation xs[n−1] to all three
// candidates' factors at once, returning each candidate's AppendRow
// error.
func (s *Search) appendRows(rows [3][]float64, xs []float64) [3]error {
	for c := range rows {
		rows[c] = s.cands[c].kern().row(rows[c], xs, len(xs)-1, searchNoiseVar)
	}
	e0, e1, e2 := linalg.AppendRow3(&s.cands[0].chol, &s.cands[1].chol, &s.cands[2].chol, rows[0], rows[1], rows[2])
	return [3]error{e0, e1, e2}
}

// observe appends an observation, evicting the oldest beyond Window.
// Eviction shifts in place (rather than reslicing) so the window
// buffers are allocated once; the shifted prefix is what lets the
// refit recognise the slide and update its factors incrementally. A
// Window shrunk between calls (ablations mutate it) evicts more than
// one point, which the refit handles by refactoring; a raised one
// re-reserves.
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

	// nominees of the last round, kept to update gains this round (and
	// reused as this round's scratch once consumed). It and gains are
	// allocated by the first round, so nil means no round yet.
	lastNominees []int
}

// init is NewHedge into an existing Hedge, so a Search can hold its
// portfolio by value.
func (h *Hedge) init(acqs []Acquisition, eta float64, rng *rand.Rand) {
	if len(acqs) == 0 {
		panic("bayesopt: empty acquisition portfolio")
	}
	if eta <= 0 {
		panic(fmt.Sprintf("bayesopt: eta %v must be positive", eta))
	}
	*h = Hedge{acqs: acqs, eta: eta, rng: rng}
}

// statsSize is the scratch proposeSweep works in for an m-point sweep
// scored by k acquisitions: the shared z, Φ(z) and φ(z) columns and the
// softmax weights.
func statsSize(m, k int) int { return 3*m + k }

// proposeSweep is ProposeSweep over the posterior p, working in st and
// buf (at least statsSize floats).
func (h *Hedge) proposeSweep(p *posterior, lo int, best float64, means, stds []float64, st *sweepStats, buf []float64) int {
	// Update gains with the posterior means at last round's nominees —
	// the Hedge reward signal, normalised by the observed utility scale
	// so units cannot destabilise the weights.
	scale := math.Abs(best)
	if scale < 1e-12 {
		scale = 1e-12
	}
	if h.lastNominees == nil {
		h.gains = make([]float64, len(h.acqs))
		h.lastNominees = make([]int, len(h.acqs))
	} else {
		for i, x := range h.lastNominees {
			var mu float64
			if j := x - lo; j >= 0 && j < len(means) {
				mu = means[j]
			} else {
				mu, _ = p.predictAt(float64(x))
			}
			h.gains[i] += math.Tanh(mu / scale)
		}
	}

	// Each acquisition nominates its argmax over the sweep. The
	// previous nominees were consumed above, so their slice is reused.
	buf = st.reset(means, stds, best, buf)
	nominees := h.lastNominees[:len(h.acqs)]
	for i, a := range h.acqs {
		var j int
		if ss, ok := a.(sweepScorer); ok {
			j = ss.argmaxSweep(st)
		} else {
			j = argmaxScore(a, means, stds, best)
		}
		nominees[i] = lo + j
	}
	h.lastNominees = nominees

	// Softmax draw over gains.
	maxG := h.gains[0]
	for _, g := range h.gains[1:] {
		if g > maxG {
			maxG = g
		}
	}
	weights := buf[:len(h.gains)]
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
