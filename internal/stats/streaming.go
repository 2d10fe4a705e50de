package stats

import "math"

// Streaming accumulates the mean and variance of a value stream in
// constant space using Welford's online update — the substrate for
// fleet-scale telemetry where materializing a million-element slice per
// metric would defeat the memory diet.
//
// The zero value is ready to use.
type Streaming struct {
	n        int64
	mean, m2 float64
}

// Add folds one observation into the accumulator.
func (s *Streaming) Add(x float64) {
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// Mean returns the running mean, or 0 before any observation.
func (s *Streaming) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.mean
}

// Variance returns the running population variance, or 0 when fewer
// than two observations have been added — matching Variance on a slice.
func (s *Streaming) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n)
}

// StdDev returns the running population standard deviation.
func (s *Streaming) StdDev() float64 { return math.Sqrt(s.Variance()) }
