// Package linalg provides the small linear-algebra primitives used by
// the Gaussian Process surrogate in package bayesopt: packed Cholesky
// factors of symmetric positive-definite (SPD) matrices, grown and slid
// one row at a time, and their triangular solves.
//
// The matrices involved in Falcon's Bayesian optimizer are tiny (the
// observation window is capped at 20 points, so kernels are at most
// 20×20). The implementation therefore favours clarity and numerical
// robustness over blocked/cache-aware performance.
package linalg

import (
	"errors"
	"fmt"
)

// ErrNotPositiveDefinite is returned when a factor's new pivot is not
// positive: the bordered matrix is not (numerically) symmetric
// positive-definite.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d != %d", len(a), len(b)))
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
