// Package bayesopt implements Falcon's Bayesian Optimization search
// (§3.2): a Gaussian Process surrogate over the utility-vs-concurrency
// function, standard acquisition functions (Expected Improvement,
// Probability of Improvement, Upper Confidence Bound), and the
// GP-Hedge portfolio [13 — Auer et al.; Hoffman et al.] that picks
// among them online.
//
// Per the paper's design choices, the optimizer starts with a short
// random sampling phase (3 samples), keeps only the most recent 20
// observations in the surrogate — bounding Gaussian Process cost and
// forcing periodic re-exploration when conditions change — and uses a
// uniform prior over the search space.
package bayesopt

import (
	"fmt"
	"math"

	"repro/internal/linalg"
)

// GP is a one-dimensional Gaussian Process regressor with an RBF
// kernel:
//
//	k(x, x') = SignalVar·exp(−(x−x')²/(2·LengthScale²)) + NoiseVar·δ(x,x')
//
// Targets are standardised internally, so hyperparameters are relative
// to unit-variance data.
//
// Fit recognises the sliding-window access pattern of the searcher:
// when the new observation set extends the previous one by a single
// point (or slides the window by one), the Cholesky factor is updated
// incrementally in O(n²) instead of refactorised in O(n³). The
// append-only update is bit-identical to a full refit; the
// window-slide update differs only by rank-1-update rounding. A GP
// keeps only its fit; the working memory of a call — kernel rows,
// Predict's k*, PredictInto's cross-covariance block — is borrowed
// from the package's scratch free list.
type GP struct {
	// LengthScale is the RBF kernel length scale in input units.
	LengthScale float64
	// SignalVar is the kernel signal variance (of standardised targets).
	SignalVar float64
	// NoiseVar is the observation noise variance (of standardised
	// targets).
	NoiseVar float64

	xs    []float64
	alpha []float64
	chol  linalg.Chol
	meanY float64
	stdY  float64
	// yStd caches the standardised targets from Fit so
	// LogMarginalLikelihood's yᵀα term is a dot product instead of a
	// kernel-matrix reconstruction.
	yStd   []float64
	fitted bool
	// fitHyper records the hyperparameters the current factor was
	// built with; the incremental paths require them unchanged.
	fitHyper [3]float64

	// kTab memoises the RBF kernel over integer input distances: the
	// searcher's inputs are integer concurrencies, so almost every
	// kernel evaluation — fits and candidate sweeps alike — has an
	// integral distance and resolves to a table lookup instead of a
	// math.Exp call. Entry d is built with the same expression the
	// direct path evaluates, so lookups are bitwise identical.
	// kTabHyper records the (LengthScale, SignalVar) the table was
	// built with; syncKTab drops it when they change.
	kTab      []float64
	kTabHyper [2]float64
}

// NewGP returns a GP with the given hyperparameters. It panics on
// non-positive values, which are configuration errors.
func NewGP(lengthScale, signalVar, noiseVar float64) *GP {
	if lengthScale <= 0 || signalVar <= 0 || noiseVar <= 0 {
		panic(fmt.Sprintf("bayesopt: invalid GP hyperparameters ℓ=%v σf²=%v σn²=%v", lengthScale, signalVar, noiseVar))
	}
	return &GP{LengthScale: lengthScale, SignalVar: signalVar, NoiseVar: noiseVar}
}

// maxKernelTable bounds the integer-distance kernel table (64 KiB of
// float64 at most); larger distances take the direct math.Exp path.
const maxKernelTable = 8192

// syncKTab invalidates the integer-distance kernel table if the kernel
// hyperparameters changed since it was built. Fit/Predict/PredictInto
// call it on entry so the kernel can trust the table unconditionally.
func (g *GP) syncKTab() {
	if g.kTabHyper[0] != g.LengthScale || g.kTabHyper[1] != g.SignalVar {
		g.kTab = g.kTab[:0]
		g.kTabHyper = [2]float64{g.LengthScale, g.SignalVar}
	}
}

// kern is the GP's kernel over its own table.
func (g *GP) kern() rbf { return rbf{g.LengthScale, g.SignalVar, &g.kTab} }

// readPost is what a prediction reads of the GP's fit, over a synced
// kernel table; for a nil GP or before a successful Fit it is a
// posterior without weights, whose predictAt panics.
func (g *GP) readPost() posterior {
	if g == nil || !g.Fitted() {
		return posterior{}
	}
	g.syncKTab()
	return posterior{g.kern(), &g.chol, g.xs, g.alpha, g.meanY, g.stdY}
}

// rbf is the RBF kernel σf²·exp(−½(d/ℓ)²) without the noise term,
// read through the owner's integer-distance table tab, which it grows
// in place: a GP's kTab, or a Search candidate's.
type rbf struct {
	ls, sf2 float64
	tab     *[]float64
}

// grow extends the table through distance di. Kept out of at's
// inlining budget: it runs a handful of times per hyperparameter set.
//
//go:noinline
func (k rbf) grow(di int) {
	for d := len(*k.tab); d <= di; d++ {
		z := float64(d) / k.ls
		*k.tab = append(*k.tab, k.sf2*math.Exp(-0.5*z*z))
	}
}

// at evaluates the kernel at inputs a and b. Integral input distances
// — the only kind the integer concurrency grid produces — come from
// the table; the table entry is σf²·exp(−½(d/ℓ)²) with d the exact
// distance, bitwise equal to the direct expression below because
// negating an exact difference and squaring it round identically.
func (k rbf) at(a, b float64) float64 {
	d := a - b
	if di := int(d); float64(di) == d {
		if di < 0 {
			di = -di
		}
		if di >= 0 && di <= maxKernelTable {
			if di >= len(*k.tab) {
				k.grow(di)
			}
			return (*k.tab)[di]
		}
	}
	z := d / k.ls
	return k.sf2 * math.Exp(-0.5*z*z)
}

// row fills row[:n+1] with k(xs[n], xs[0..n]) plus, on the diagonal,
// the noise variance noise and a little for numerical safety — the
// bordering row AppendRow consumes.
func (k rbf) row(row, xs []float64, n int, noise float64) []float64 {
	row = row[:n+1]
	for j, xj := range xs[:n+1] {
		row[j] = k.at(xs[n], xj)
	}
	row[n] += noise + 1e-9
	return row
}

// refactor builds c from scratch over xs under kernel k and noise
// variance noise, taking each bordering row in row (at least len(xs)
// floats). A failure leaves c empty.
func refactor(c *linalg.Chol, k rbf, noise float64, xs, row []float64) error {
	c.Reset()
	for i := range xs {
		if err := c.AppendRow(k.row(row, xs, i, noise)); err != nil {
			c.Reset()
			return fmt.Errorf("bayesopt: kernel matrix not PD: %w", err)
		}
	}
	return nil
}

// refactor rebuilds the GP's factor; a failure leaves it unfitted.
func (g *GP) refactor(xs, row []float64) error {
	if err := refactor(&g.chol, g.kern(), g.NoiseVar, xs, row); err != nil {
		g.fitted = false
		return err
	}
	return nil
}

// extendsByOne reports whether xs equals old plus one appended point.
func extendsByOne(old, xs []float64) bool {
	if len(xs) != len(old)+1 {
		return false
	}
	for i := range old {
		if xs[i] != old[i] {
			return false
		}
	}
	return true
}

// slidesByOne reports whether xs equals old shifted left by one with
// one appended point (the full-window case).
func slidesByOne(old, xs []float64) bool {
	if len(xs) != len(old) || len(xs) == 0 {
		return false
	}
	for i := 1; i < len(old); i++ {
		if xs[i-1] != old[i] {
			return false
		}
	}
	return true
}

// standardise writes (ys − mean)/std into dst and returns the mean and
// std; constant targets keep std 1 and are left centred at zero.
func standardise(dst, ys []float64) (mean, std float64) {
	n := len(ys)
	for _, y := range ys {
		mean += y
	}
	mean /= float64(n)
	variance := 0.0
	for _, y := range ys {
		variance += (y - mean) * (y - mean)
	}
	variance /= float64(n)
	std = math.Sqrt(variance)
	if std < 1e-12 {
		std = 1
	}
	for i, y := range ys {
		dst[i] = (y - mean) / std
	}
	return mean, std
}

// Fit conditions the GP on the observations. It returns an error when
// called with mismatched or empty slices or when the kernel matrix is
// numerically singular (which the noise term should prevent).
func (g *GP) Fit(xs, ys []float64) error {
	if len(xs) == 0 {
		return fmt.Errorf("bayesopt: Fit with no observations")
	}
	if len(xs) != len(ys) {
		return fmt.Errorf("bayesopt: Fit length mismatch %d != %d", len(xs), len(ys))
	}
	n := len(xs)
	g.syncKTab()
	sc := borrow(n)
	defer sc.release()
	row := sc.buf

	// Update the factor: incrementally when the window grew or slid by
	// one under unchanged hyperparameters, from scratch otherwise. A
	// failed incremental update falls back to refactoring.
	hyper := [3]float64{g.LengthScale, g.SignalVar, g.NoiseVar}
	switch {
	case g.fitted && hyper == g.fitHyper && extendsByOne(g.xs, xs):
		if err := g.chol.AppendRow(g.kern().row(row, xs, n-1, g.NoiseVar)); err != nil {
			if err := g.refactor(xs, row); err != nil {
				return err
			}
		}
	case g.fitted && hyper == g.fitHyper && slidesByOne(g.xs, xs):
		g.chol.DropFirst()
		if err := g.chol.AppendRow(g.kern().row(row, xs, n-1, g.NoiseVar)); err != nil {
			if err := g.refactor(xs, row); err != nil {
				return err
			}
		}
	default:
		if err := g.refactor(xs, row); err != nil {
			return err
		}
	}

	g.yStd = grow(g.yStd, n)
	g.meanY, g.stdY = standardise(g.yStd, ys)
	g.alpha = grow(g.alpha, n)
	g.xs = append(g.xs[:0], xs...)
	g.fitHyper = hyper
	g.fitted = true
	g.chol.SolveInto(g.alpha, g.yStd)
	return nil
}

// grow returns s resized to n, reallocating only when it is too small.
func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// Fitted reports whether the GP holds a usable posterior: Fit has
// succeeded at least once and the factor survives (a failed refit
// invalidates it).
func (g *GP) Fitted() bool { return g.fitted }

// posterior is what a prediction reads of a fit: the kernel, the
// factor, the fitted inputs and their weights, and the target scaling.
// A GP builds one over its own fit (readPost); a Search over its selected
// candidate and the fit state it shares among its candidates. It is a
// view, built where it is read.
type posterior struct {
	k           rbf
	chol        *linalg.Chol
	xs, alpha   []float64
	meanY, stdY float64
}

// predictAt is Predict over the posterior, in borrowed scratch. It
// panics on a posterior without weights.
func (p *posterior) predictAt(x float64) (mean, std float64) {
	if p.alpha == nil {
		panic("bayesopt: Predict before Fit")
	}
	sc := borrow(2 * len(p.xs))
	defer sc.release()
	return p.predict(x, sc.buf)
}

// predict is the posterior at x with a synced kernel table, working in
// buf (at least 2·len(p.xs) floats).
func (p *posterior) predict(x float64, buf []float64) (mean, std float64) {
	n := len(p.xs)
	kstar, v := buf[:n], buf[n:2*n]
	for i, xi := range p.xs {
		kstar[i] = p.k.at(x, xi)
	}
	mu := linalg.Dot(kstar, p.alpha)
	p.chol.SolveLowerInto(v, kstar)
	varStar := p.k.sf2 - linalg.Dot(v, v)
	if varStar < 0 {
		varStar = 0
	}
	return mu*p.stdY + p.meanY, math.Sqrt(varStar) * p.stdY
}

// sweepTablePrepared reports whether the query grid xs is consecutive
// integers and every fitted input is integral, in which case it grows
// the kernel table to cover every query↔training distance and returns
// the grid's integer origin. predictInto's fast path then reads every
// kernel value straight out of the table.
func (p *posterior) sweepTablePrepared(xs []float64, m int) (int, bool) {
	x0 := xs[0]
	x0i := int(x0)
	if float64(x0i) != x0 {
		return 0, false
	}
	for j, x := range xs {
		if x != x0+float64(j) {
			return 0, false
		}
	}
	maxIdx := 0
	for _, xi := range p.xs {
		q := int(xi)
		if float64(q) != xi {
			return 0, false
		}
		rel := q - x0i
		if rel > maxIdx {
			maxIdx = rel
		}
		if d := (m - 1) - rel; d > maxIdx {
			maxIdx = d
		}
	}
	if maxIdx > maxKernelTable {
		return 0, false
	}
	if maxIdx >= len(*p.k.tab) {
		p.k.grow(maxIdx)
	}
	return x0i, true
}

// PredictInto evaluates the posterior at every query point in one
// batched pass, writing the means and standard deviations (original
// target units) into means and stds. It is bitwise identical to
// calling Predict once per point — the same individually rounded
// operations in the same per-point order — but touches the Cholesky
// factor once for all points instead of once per point and reuses one
// flat scratch block, so a full candidate-grid sweep is a single
// cache-friendly kernel. The alpha vector (K⁻¹y) is already cached by
// Fit; no per-call factor work happens here. It panics before a
// successful Fit or on length mismatches.
func (g *GP) PredictInto(xs, means, stds []float64) {
	if !g.Fitted() {
		panic("bayesopt: PredictInto before Fit")
	}
	m := len(xs)
	if len(means) != m || len(stds) != m {
		panic(fmt.Sprintf("bayesopt: PredictInto lengths %d,%d != %d", len(means), len(stds), m))
	}
	if m == 0 {
		return
	}
	p := g.readPost()
	sc := borrow(len(g.xs) * m)
	p.predictInto(xs, means, stds, sc.buf)
	sc.release()
}

// predictInto is PredictInto over caller-provided scratch b of at
// least len(p.xs)·len(xs) floats, for a posterior with weights and a
// synced kernel table and a non-empty query grid.
func (p *posterior) predictInto(xs, means, stds, b []float64) {
	m, n := len(xs), len(p.xs)
	// B is the n×m cross-covariance block in i-major layout:
	// B[i*m+j] = k(xs[j], X[i]) — column j is Predict's k* vector.
	b = b[:n*m]
	// The means accumulate during the build in ascending-i order, so
	// each is bitwise linalg.Dot(k*, alpha).
	for j := range means {
		means[j] = 0
	}
	if x0, ok := p.sweepTablePrepared(xs, m); ok {
		// Fast path: consecutive-integer query grid over integral
		// training inputs — the searcher's candidate sweep. Every
		// kernel value is kTab[|j−p|], so each row is two strided
		// table walks with no per-element kernel call; the table was
		// grown to cover every distance above.
		ktab := *p.k.tab
		for i, xi := range p.xs {
			row := b[i*m : i*m+m]
			q := int(xi) - x0
			down := q // row[j] = ktab[q−j] for j < q
			if down > m {
				down = m
			}
			for j := 0; j < down; j++ {
				row[j] = ktab[q-j]
			}
			if q < m {
				up := q // row[j] = ktab[j−q] for j ≥ q
				if up < 0 {
					up = 0
				}
				copy(row[up:], ktab[up-q:m-q])
			}
			linalg.AxpyInto(means, row, p.alpha[i])
		}
	} else {
		for i, xi := range p.xs {
			ai := p.alpha[i]
			row := b[i*m : i*m+m]
			for j, x := range xs {
				kv := p.k.at(x, xi)
				row[j] = kv
				means[j] += kv * ai
			}
		}
	}
	// One forward solve for all points: column j becomes Predict's v.
	p.chol.SolveLowerBatchInto(b, m)
	// stds[j] accumulates Σᵢ vᵢ² in ascending-i order, matching
	// linalg.Dot(v, v).
	for j := range stds {
		stds[j] = 0
	}
	for i := 0; i < n; i++ {
		linalg.AddSqInto(stds, b[i*m:i*m+m])
	}
	for j := range stds {
		varStar := p.k.sf2 - stds[j]
		if varStar < 0 {
			varStar = 0
		}
		means[j] = means[j]*p.stdY + p.meanY
		stds[j] = math.Sqrt(varStar) * p.stdY
	}
}

// logMarginal is the log evidence of a fit with standardised targets
// yStd, weights alpha = K⁻¹·yStd and kernel factor c.
func logMarginal(yStd, alpha []float64, c *linalg.Chol) float64 {
	quad := linalg.Dot(yStd, alpha)
	return -0.5*quad - 0.5*c.LogDet() - float64(len(yStd))/2*math.Log(2*math.Pi)
}
