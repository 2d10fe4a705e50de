package stats

import (
	"math"
	"math/rand"
	"testing"
)

// TestStreamingMatchesBatch folds random streams through Streaming and
// checks every summary against the batch functions on the same slice.
func TestStreamingMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{0, 1, 2, 3, 10, 1000} {
		xs := make([]float64, n)
		var s Streaming
		for i := range xs {
			xs[i] = rng.NormFloat64()*3 + 7
			s.Add(xs[i])
		}
		if got, want := s.Mean(), Mean(xs); math.Abs(got-want) > 1e-12 {
			t.Fatalf("n=%d: Mean = %v, batch %v", n, got, want)
		}
		if got, want := s.Variance(), Variance(xs); math.Abs(got-want) > 1e-9 {
			t.Fatalf("n=%d: Variance = %v, batch %v", n, got, want)
		}
	}
}

// TestStreamingZeroValue pins the empty accumulator's conventions.
func TestStreamingZeroValue(t *testing.T) {
	var s Streaming
	if s.Mean() != 0 || s.Variance() != 0 || s.StdDev() != 0 {
		t.Fatalf("zero-value Streaming not all-zero: %+v", s)
	}
	s.Add(5)
	if s.Mean() != 5 || s.Variance() != 0 {
		t.Fatalf("single observation: %+v", s)
	}
}

// TestStreamingCatastrophicShift checks Welford's numerical robustness
// on a large-offset stream where the naive sum-of-squares formula
// loses all precision.
func TestStreamingCatastrophicShift(t *testing.T) {
	var s Streaming
	base := 1e9
	for i := 0; i < 1000; i++ {
		s.Add(base + float64(i%2)) // values 1e9 and 1e9+1, variance 0.25
	}
	if got := s.Variance(); math.Abs(got-0.25) > 1e-6 {
		t.Fatalf("Variance = %v, want 0.25", got)
	}
}
