package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); got != c.want {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !approx(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !approx(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if got := Variance([]float64{1}); got != 0 {
		t.Errorf("Variance of 1 element = %v, want 0", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	if got := Percentile(xs, 0); got != 15 {
		t.Errorf("P0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 50 {
		t.Errorf("P100 = %v", got)
	}
	if got := Percentile(xs, 50); got != 35 {
		t.Errorf("P50 = %v", got)
	}
	if got := Percentile(xs, 25); got != 20 {
		t.Errorf("P25 = %v", got)
	}
	if got := Percentile([]float64{1, 2, 3, 4}, 50); !approx(got, 2.5, 1e-12) {
		t.Errorf("P50 of an even count = %v, want 2.5", got)
	}
}

func TestPercentileOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Percentile(.., 101) did not panic")
		}
	}()
	Percentile([]float64{1}, 101)
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{10, 10, 10}); !approx(got, 1, 1e-12) {
		t.Errorf("equal allocation J = %v, want 1", got)
	}
	// One agent takes everything: J = 1/n.
	if got := JainIndex([]float64{30, 0, 0}); !approx(got, 1.0/3, 1e-12) {
		t.Errorf("monopoly J = %v, want 1/3", got)
	}
	if got := JainIndex(nil); got != 0 {
		t.Errorf("empty J = %v, want 0", got)
	}
	if got := JainIndex([]float64{0, 0}); got != 0 {
		t.Errorf("all-zero J = %v, want 0", got)
	}
}

// Property: Jain index always lies in [1/n, 1] for non-negative,
// not-all-zero allocations, and is scale invariant.
func TestJainIndexProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, r := range raw {
			v := math.Abs(r)
			if math.IsInf(v, 0) || math.IsNaN(v) || v > 1e100 {
				return true
			}
			xs = append(xs, v)
		}
		if Mean(xs) == 0 {
			return true
		}
		j := JainIndex(xs)
		n := float64(len(xs))
		if j < 1/n-1e-9 || j > 1+1e-9 {
			return false
		}
		scaled := make([]float64, len(xs))
		for i, x := range xs {
			scaled[i] = 3.5 * x
		}
		return approx(JainIndex(scaled), j, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
