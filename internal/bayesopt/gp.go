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
// window-slide update differs only by rank-1-update rounding.
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
	chol  *linalg.Chol
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

	// Scratch buffers (kernel rows, Predict k* and solve vectors,
	// PredictInto's cross-covariance block).
	rowBuf []float64
	kstar  []float64
	vbuf   []float64
	bbuf   []float64

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
	return &GP{LengthScale: lengthScale, SignalVar: signalVar, NoiseVar: noiseVar, chol: linalg.NewChol(0)}
}

// gpOwnSize and gpSharedSize are the float64 counts reserve carves, for
// a window of n observations swept over an m-point grid.
func gpOwnSize(n, m int) int    { return linalg.PackedSize(n) + 3*n + m }
func gpSharedSize(n, m int) int { return 2*n + n*m }

// reserve sizes the GP for a window of n observations swept over an
// m-point grid, so a searcher's buffers are allocated once instead of
// growing while its window fills. The state a fit leaves behind — the
// factor, standardised targets, weights, inputs and kernel table — is
// carved from the front of own (gpOwnSize floats), which reserve
// returns the rest of. The kernel-row, DropFirst and PredictInto scratch
// comes from shared (gpSharedSize floats): it holds nothing between
// calls, so GPs that never fit or sweep concurrently, like one
// searcher's length-scale candidates, share it. Fitted state carries
// over; anything larger than the reservation still grows on demand.
func (g *GP) reserve(own, shared []float64, n, m int) []float64 {
	carve := func(buf, old []float64, c int) ([]float64, []float64) {
		return append(buf[:0:c], old...), buf[c:]
	}
	var tri []float64
	tri, own = carve(own, nil, linalg.PackedSize(n))
	g.yStd, own = carve(own, g.yStd, n)
	g.alpha, own = carve(own, g.alpha, n)
	g.xs, own = carve(own, g.xs, n)
	g.kTab, own = carve(own, g.kTab, m)
	g.chol.Rehome(tri, shared[:n:n])
	g.rowBuf, shared = carve(shared[n:], nil, n)
	g.bbuf, _ = carve(shared, nil, n*m)
	return own
}

// maxKernelTable bounds the integer-distance kernel table (64 KiB of
// float64 at most); larger distances take the direct math.Exp path.
const maxKernelTable = 8192

// syncKTab invalidates the integer-distance kernel table if the kernel
// hyperparameters changed since it was built. Fit/Predict/PredictInto
// call it on entry so kernel() can trust the table unconditionally.
func (g *GP) syncKTab() {
	if g.kTabHyper[0] != g.LengthScale || g.kTabHyper[1] != g.SignalVar {
		g.kTab = g.kTab[:0]
		g.kTabHyper = [2]float64{g.LengthScale, g.SignalVar}
	}
}

// growKTab extends the table through distance di. Kept out of kernel's
// inlining budget: it runs a handful of times per hyperparameter set.
//
//go:noinline
func (g *GP) growKTab(di int) {
	for d := len(g.kTab); d <= di; d++ {
		z := float64(d) / g.LengthScale
		g.kTab = append(g.kTab, g.SignalVar*math.Exp(-0.5*z*z))
	}
}

// sweepTablePrepared reports whether the query grid xs is consecutive
// integers and every training input is integral, in which case it
// grows the kernel table to cover every query↔training distance and
// returns the grid's integer origin. PredictInto's fast path then
// reads every kernel value straight out of the table.
func (g *GP) sweepTablePrepared(xs []float64, m int) (int, bool) {
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
	for _, xi := range g.xs {
		p := int(xi)
		if float64(p) != xi {
			return 0, false
		}
		rel := p - x0i
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
	if maxIdx >= len(g.kTab) {
		g.growKTab(maxIdx)
	}
	return x0i, true
}

// kernel evaluates the RBF kernel without the noise term. Integral
// input distances — the only kind the integer concurrency grid
// produces — come from kTab; the table entry is σf²·exp(−½(d/ℓ)²)
// with d the exact distance, bitwise equal to the direct expression
// below because negating an exact difference and squaring it round
// identically.
func (g *GP) kernel(a, b float64) float64 {
	d := a - b
	if di := int(d); float64(di) == d {
		if di < 0 {
			di = -di
		}
		if di >= 0 && di <= maxKernelTable {
			if di >= len(g.kTab) {
				g.growKTab(di)
			}
			return g.kTab[di]
		}
	}
	z := d / g.LengthScale
	return g.SignalVar * math.Exp(-0.5*z*z)
}

// kernelRow fills g.rowBuf with k(xs[n], xs[0..n]) including the noise
// jitter on the diagonal — the bordering row AppendRow consumes.
func (g *GP) kernelRow(xs []float64, n int) []float64 {
	if cap(g.rowBuf) < n+1 {
		g.rowBuf = make([]float64, n+1)
	}
	row := g.rowBuf[:n+1]
	for j := 0; j <= n; j++ {
		v := g.kernel(xs[n], xs[j])
		if j == n {
			v += g.NoiseVar + 1e-9 // jitter for numerical safety
		}
		row[j] = v
	}
	return row
}

// refactor builds the Cholesky factor from scratch.
func (g *GP) refactor(xs []float64) error {
	g.chol.Reset()
	for i := range xs {
		if err := g.chol.AppendRow(g.kernelRow(xs, i)); err != nil {
			g.chol.Reset()
			g.fitted = false
			return fmt.Errorf("bayesopt: kernel matrix not PD: %w", err)
		}
	}
	return nil
}

// extendsByOne reports whether xs equals g.xs plus one appended point.
func (g *GP) extendsByOne(xs []float64) bool {
	if len(xs) != len(g.xs)+1 {
		return false
	}
	for i := range g.xs {
		if xs[i] != g.xs[i] {
			return false
		}
	}
	return true
}

// slidesByOne reports whether xs equals g.xs shifted left by one with
// one appended point (the full-window case).
func (g *GP) slidesByOne(xs []float64) bool {
	if len(xs) != len(g.xs) || len(xs) == 0 {
		return false
	}
	for i := 1; i < len(g.xs); i++ {
		if xs[i-1] != g.xs[i] {
			return false
		}
	}
	return true
}

// Fit conditions the GP on the observations. It returns an error when
// called with mismatched or empty slices or when the kernel matrix is
// numerically singular (which the noise term should prevent).
func (g *GP) Fit(xs, ys []float64) error {
	if err := g.fitPrepare(xs, ys); err != nil {
		return err
	}
	g.solveAlpha()
	return nil
}

// fitPrepare is Fit minus the alpha solve: it updates the Cholesky
// factor, standardises the targets and records the fit state, leaving
// g.alpha sized but stale. Search's model selection prepares all three
// length-scale candidates first and then solves their alphas in one
// interleaved pass (linalg.SolveInto3); single-GP callers use Fit,
// which is fitPrepare plus solveAlpha.
func (g *GP) fitPrepare(xs, ys []float64) error {
	if len(xs) == 0 {
		return fmt.Errorf("bayesopt: Fit with no observations")
	}
	if len(xs) != len(ys) {
		return fmt.Errorf("bayesopt: Fit length mismatch %d != %d", len(xs), len(ys))
	}
	n := len(xs)
	g.syncKTab()

	// Standardise targets.
	mean := 0.0
	for _, y := range ys {
		mean += y
	}
	mean /= float64(n)
	variance := 0.0
	for _, y := range ys {
		variance += (y - mean) * (y - mean)
	}
	variance /= float64(n)
	std := math.Sqrt(variance)
	if std < 1e-12 {
		std = 1 // constant targets: leave them centred at zero
	}

	// Update the factor: incrementally when the window grew or slid by
	// one under unchanged hyperparameters, from scratch otherwise. A
	// failed incremental update falls back to refactoring.
	hyper := [3]float64{g.LengthScale, g.SignalVar, g.NoiseVar}
	switch {
	case g.fitted && hyper == g.fitHyper && g.extendsByOne(xs):
		if err := g.chol.AppendRow(g.kernelRow(xs, n-1)); err != nil {
			if err := g.refactor(xs); err != nil {
				return err
			}
		}
	case g.fitted && hyper == g.fitHyper && g.slidesByOne(xs):
		g.chol.DropFirst()
		if err := g.chol.AppendRow(g.kernelRow(xs, n-1)); err != nil {
			if err := g.refactor(xs); err != nil {
				return err
			}
		}
	default:
		if err := g.refactor(xs); err != nil {
			return err
		}
	}

	if cap(g.yStd) < n {
		g.yStd = make([]float64, n)
	}
	g.yStd = g.yStd[:n]
	for i, y := range ys {
		g.yStd[i] = (y - mean) / std
	}
	if cap(g.alpha) < n {
		g.alpha = make([]float64, n)
	}
	g.alpha = g.alpha[:n]
	g.xs = append(g.xs[:0], xs...)
	g.meanY = mean
	g.stdY = std
	g.fitHyper = hyper
	g.fitted = true
	return nil
}

// solveAlpha computes alpha = K⁻¹·yStd against the prepared factor.
func (g *GP) solveAlpha() {
	g.chol.SolveInto(g.alpha, g.yStd)
}

// Fitted reports whether Fit has succeeded at least once (and the
// factor survives — a failed refit invalidates it).
func (g *GP) Fitted() bool { return g.fitted }

// Predict returns the posterior mean and standard deviation at x, in
// the original target units. Predicting before a successful Fit panics
// — a sequencing bug in the caller.
func (g *GP) Predict(x float64) (mean, std float64) {
	if !g.Fitted() {
		panic("bayesopt: Predict before Fit")
	}
	g.syncKTab()
	n := len(g.xs)
	if cap(g.kstar) < n {
		// Sized to the reserved window, not the current fill.
		g.kstar = make([]float64, max(n, cap(g.xs)))
		g.vbuf = make([]float64, cap(g.kstar))
	}
	kstar := g.kstar[:n]
	v := g.vbuf[:n]
	for i, xi := range g.xs {
		kstar[i] = g.kernel(x, xi)
	}
	mu := linalg.Dot(kstar, g.alpha)
	g.chol.SolveLowerInto(v, kstar)
	varStar := g.SignalVar - linalg.Dot(v, v)
	if varStar < 0 {
		varStar = 0
	}
	return mu*g.stdY + g.meanY, math.Sqrt(varStar) * g.stdY
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
	g.syncKTab()
	n := len(g.xs)
	// B is the n×m cross-covariance block in i-major layout:
	// B[i*m+j] = k(xs[j], X[i]) — column j is Predict's k* vector.
	if cap(g.bbuf) < n*m {
		g.bbuf = make([]float64, n*m)
	}
	b := g.bbuf[:n*m]
	// The means accumulate during the build in ascending-i order, so
	// each is bitwise linalg.Dot(k*, alpha).
	for j := range means {
		means[j] = 0
	}
	if x0, ok := g.sweepTablePrepared(xs, m); ok {
		// Fast path: consecutive-integer query grid over integral
		// training inputs — the searcher's candidate sweep. Every
		// kernel value is kTab[|j−p|], so each row is two strided
		// table walks with no per-element kernel call; the table was
		// grown to cover every distance above.
		ktab := g.kTab
		for i, xi := range g.xs {
			row := b[i*m : i*m+m]
			p := int(xi) - x0
			down := p // row[j] = ktab[p−j] for j < p
			if down > m {
				down = m
			}
			for j := 0; j < down; j++ {
				row[j] = ktab[p-j]
			}
			if p < m {
				up := p // row[j] = ktab[j−p] for j ≥ p
				if up < 0 {
					up = 0
				}
				copy(row[up:], ktab[up-p:m-p])
			}
			linalg.AxpyInto(means, row, g.alpha[i])
		}
	} else {
		for i, xi := range g.xs {
			ai := g.alpha[i]
			row := b[i*m : i*m+m]
			for j, x := range xs {
				kv := g.kernel(x, xi)
				row[j] = kv
				means[j] += kv * ai
			}
		}
	}
	// One forward solve for all points: column j becomes Predict's v.
	g.chol.SolveLowerBatchInto(b, m)
	// stds[j] accumulates Σᵢ vᵢ² in ascending-i order, matching
	// linalg.Dot(v, v).
	for j := range stds {
		stds[j] = 0
	}
	for i := 0; i < n; i++ {
		linalg.AddSqInto(stds, b[i*m:i*m+m])
	}
	for j := range stds {
		varStar := g.SignalVar - stds[j]
		if varStar < 0 {
			varStar = 0
		}
		means[j] = means[j]*g.stdY + g.meanY
		stds[j] = math.Sqrt(varStar) * g.stdY
	}
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
	n := len(g.xs)
	quad := linalg.Dot(g.yStd, g.alpha)
	return -0.5*quad - 0.5*g.chol.LogDet() - float64(n)/2*math.Log(2*math.Pi)
}
