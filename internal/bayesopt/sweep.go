package bayesopt

import "math"

// sweepStats carries one posterior sweep — means[j], stds[j] at grid
// point j and the incumbent best — plus lazily computed per-point
// statistics shared across the portfolio's acquisitions. EI and PI
// with the same margin Xi score from the same z = (mean−best−Xi)/std,
// Φ(z) and φ(z); computing each of those once per sweep instead of
// once per acquisition halves the Erfc work of the default portfolio.
// Every cached entry is produced by the exact expression the
// corresponding Score method evaluates, so argmax selection over the
// cache is bitwise identical to scoring point by point.
type sweepStats struct {
	means, stds []float64
	best        float64

	// z/cdf (and pdf) are valid for margin xi when zValid (pdfValid).
	xi       float64
	zValid   bool
	pdfValid bool
	z        []float64
	cdf      []float64
	pdf      []float64
}

// reset points the stats at a new sweep, drops all cached columns and
// carves the columns from buf, returning the rest of it.
func (st *sweepStats) reset(means, stds []float64, best float64, buf []float64) []float64 {
	st.means, st.stds, st.best = means, stds, best
	st.zValid, st.pdfValid = false, false
	m := len(means)
	st.z, buf = carve(buf, m)
	st.cdf, buf = carve(buf, m)
	st.pdf, buf = carve(buf, m)
	return buf
}

// ensureCDF fills z and Φ(z) for margin xi. Points with std ≤ 0 get
// whatever ±Inf/NaN the division produces; their scores never read it
// (the Score methods branch before dividing, and so do the argmax
// loops below).
func (st *sweepStats) ensureCDF(xi float64) {
	if st.zValid && xi == st.xi {
		return
	}
	st.xi = xi
	st.zValid, st.pdfValid = true, false
	z := st.z[:len(st.means)]
	cdf := st.cdf[:len(st.means)]
	for j, mu := range st.means {
		d := mu - st.best - xi
		zj := d / st.stds[j]
		z[j] = zj
		cdf[j] = normCDF(zj)
	}
}

// ensurePDF fills φ(z) on top of ensureCDF.
func (st *sweepStats) ensurePDF(xi float64) {
	st.ensureCDF(xi)
	if st.pdfValid {
		return
	}
	st.pdfValid = true
	pdf := st.pdf[:len(st.means)]
	for j, zj := range st.z[:len(st.means)] {
		pdf[j] = normPDF(zj)
	}
}

// sweepScorer is the fast path an acquisition can implement to pick
// its argmax directly from a sweep's cached statistics. The selection
// must match argmaxScore over Score exactly, including first-strict-max
// tie-breaking.
type sweepScorer interface {
	argmaxSweep(st *sweepStats) int
}

// argmaxScore is the generic fallback for acquisitions outside the
// default portfolio: score every point, keep the first strict maximum.
func argmaxScore(a Acquisition, means, stds []float64, best float64) int {
	bestSc, idx := math.Inf(-1), 0
	for j := range means {
		if sc := a.Score(means[j], stds[j], best); sc > bestSc {
			bestSc, idx = sc, j
		}
	}
	return idx
}

// argmaxSweep implements sweepScorer for EI: d·Φ(z) + σ·φ(z), the same
// expression as Score with z, Φ and φ read from the shared cache.
func (a EI) argmaxSweep(st *sweepStats) int {
	st.ensurePDF(a.Xi)
	bestSc, idx := math.Inf(-1), 0
	for j, sd := range st.stds {
		var sc float64
		if sd <= 0 {
			if d := st.means[j] - st.best - a.Xi; d > 0 {
				sc = d
			}
		} else {
			d := st.means[j] - st.best - a.Xi
			sc = d*st.cdf[j] + sd*st.pdf[j]
		}
		if sc > bestSc {
			bestSc, idx = sc, j
		}
	}
	return idx
}

// argmaxSweep implements sweepScorer for PI: Φ(z) from the shared
// cache.
func (a PI) argmaxSweep(st *sweepStats) int {
	st.ensureCDF(a.Xi)
	bestSc, idx := math.Inf(-1), 0
	for j, sd := range st.stds {
		var sc float64
		if sd <= 0 {
			if st.means[j] > st.best+a.Xi {
				sc = 1
			}
		} else {
			sc = st.cdf[j]
		}
		if sc > bestSc {
			bestSc, idx = sc, j
		}
	}
	return idx
}

// argmaxSweep implements sweepScorer for UCB: μ + κσ needs no cached
// transcendentals at all.
func (a UCB) argmaxSweep(st *sweepStats) int {
	bestSc, idx := math.Inf(-1), 0
	for j, sd := range st.stds {
		if sc := st.means[j] + a.Kappa*sd; sc > bestSc {
			bestSc, idx = sc, j
		}
	}
	return idx
}
