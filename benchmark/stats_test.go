package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

// The expected quartiles are what Python's statistics.quantiles(xs, n=4)
// prints for the same lists: the driver computes spreads with it.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{2.4, 2.5, 2.45, 2.6, 3.9, 2.42, 2.44, 2.47, 2.51}, 2.43, 2.47, 2.555},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q2, tc.q2) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
		if m := median(tc.xs); !near(m, tc.q2) {
			t.Errorf("median(%v) = %v, want %v", tc.xs, m, tc.q2)
		}
	}
	if q1, q2, q3 := quartiles(nil); !math.IsNaN(q1) || !math.IsNaN(q2) || !math.IsNaN(q3) {
		t.Errorf("quartiles(nil) = %v %v %v, want NaN", q1, q2, q3)
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(s, 1) {
		t.Errorf("spread = %v, want 1", s)
	}
}

func TestBetterHalf(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		lower, want float64
	}{
		{[]float64{5}, 5, 5},
		{[]float64{2, 1}, 1, 2},
		{[]float64{3, 1, 2}, 1.5, 2.5},
		{[]float64{4, 1, 3, 2}, 1.5, 3.5},
		{[]float64{9, 1, 5, 3, 7}, 3, 7},
		{[]float64{2.5, 2.5, 2.5}, 2.5, 2.5},
	} {
		if got := betterHalf(tc.xs, true); !near(got, tc.lower) {
			t.Errorf("betterHalf(%v, lower) = %v, want %v", tc.xs, got, tc.lower)
		}
		if got := betterHalf(tc.xs, false); !near(got, tc.want) {
			t.Errorf("betterHalf(%v, higher) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(betterHalf(nil, true)) {
		t.Error("betterHalf(nil) is not NaN")
	}
}

func TestHighestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {6000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	if supports(80, 99) {
		t.Error("80 heavy samples must not support a p99")
	}
	if !supports(2000, 99) {
		t.Error("2000 light samples must support a p99")
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	for _, tc := range []struct{ p, want float64 }{{0, 10}, {50, 30}, {100, 50}, {25, 20}, {90, 46}} {
		if got := percentile(xs, tc.p); !near(got, tc.want) {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestJainAndEquilibrium(t *testing.T) {
	if j := jain([]float64{2, 2, 2, 2}); !near(j, 1) {
		t.Errorf("equal shares: jain = %v, want 1", j)
	}
	if j := jain([]float64{4, 0, 0, 0}); !near(j, 0.25) {
		t.Errorf("one holder of four: jain = %v, want 0.25", j)
	}
	if j := jain(nil); j != 0 {
		t.Errorf("no members: jain = %v, want 0", j)
	}
	j, u := equilibrium([]float64{1, 1, 2}, 8e9)
	if !near(j, 16.0/18) || !near(u, 0.5) {
		t.Errorf("equilibrium = %v %v, want %v 0.5", j, u, 16.0/18)
	}
}
