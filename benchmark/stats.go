package main

import (
	"math"
	"sort"
)

// The benchmark keeps its own arithmetic, small as it is, instead of
// importing repro/internal/stats: a change to the program under test must
// not be able to move the ruler.

// quartiles returns the first quartile, median and third quartile of
// xs by the exclusive method, the one Python's
// statistics.quantiles(xs, n=4) uses, so a spread computed here is the
// spread the driver computes. One value is its own three quartiles; no
// values give NaN.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median is the middle value of xs (NaN when empty).
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// betterHalf is the median of the better half of xs: the lower half
// (rounded up) when lower is better, the upper half otherwise. It is
// how a run distils its passes. Whatever disturbs a pass on a shared
// host — a neighbour on the sibling thread, a cold cache, a collection —
// only ever makes it slower, so the undisturbed half of the passes is
// the better half, and their median moves less from run to run than the
// median of all of them. NaN when empty.
func betterHalf(xs []float64, lowerIsBetter bool) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := (len(s) + 1) / 2
	if lowerIsBetter {
		return median(s[:k])
	}
	return median(s[len(s)-k:])
}

// spread is the interquartile range of xs as a share of its median —
// the steadiness figure the driver holds against a metric's bound.
func spread(xs []float64) float64 {
	q1, m, q3 := quartiles(xs)
	if m == 0 || math.IsNaN(m) {
		return math.NaN()
	}
	return (q3 - q1) / math.Abs(m)
}

// percentile returns the p-th percentile (0–100) of an ascending slice
// by linear interpolation between closest ranks.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	r := p / 100 * float64(n-1)
	lo := int(math.Floor(r))
	if lo >= n-1 {
		return sorted[n-1]
	}
	f := r - float64(lo)
	return sorted[lo]*(1-f) + sorted[lo+1]*f
}

// tailPercentiles are the candidates for "the highest percentile the
// sample supports", ascending.
var tailPercentiles = []float64{50, 90, 99, 99.9}

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: fewer and the figure is one or two outliers.
const minBeyond = 10

// supports reports whether n samples leave at least minBeyond of them
// beyond percentile p.
func supports(n int, p float64) bool {
	// Tolerance, because 100 − 99.9 is not exactly 0.1.
	return float64(n)*(100-p) >= minBeyond*100-1e-6
}

// highestPercentile returns the highest of tailPercentiles that n
// samples support, or 0 when they support none.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if supports(n, p) {
			best = p
		}
	}
	return best
}

// jain is Jain's fairness index (Σx)² / (n·Σx²) over xs: 1 for equal
// shares, 1/n when one member holds everything, 0 for no members or
// all-zero shares.
func jain(xs []float64) float64 {
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if len(xs) == 0 || sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// equilibrium distils the final-window shares of a fleet: Jain's index
// over the per-session mean throughputs (Gbps) of the sessions live in
// the window, and their sum as a share of the bottleneck capacity
// (bits/s). Both fleet recorders feed it, so the two recording modes
// report through one formula.
func equilibrium(meansGbps []float64, capacityBits float64) (jainIdx, utilisation float64) {
	var sum float64
	for _, m := range meansGbps {
		sum += m
	}
	if capacityBits > 0 {
		utilisation = sum * 1e9 / capacityBits
	}
	return jain(meansGbps), utilisation
}
