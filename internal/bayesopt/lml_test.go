package bayesopt

import (
	"math"
	"testing"
)

func TestLogMarginalLikelihoodBeforeFitPanics(t *testing.T) {
	gp := NewGP(1, 1, 0.01)
	defer func() {
		if recover() == nil {
			t.Error("LML before Fit did not panic")
		}
	}()
	gp.LogMarginalLikelihood()
}

func TestLogMarginalLikelihoodPrefersMatchingLengthScale(t *testing.T) {
	// Data generated from a smooth function with characteristic scale
	// ~4: the LML at ℓ=4 should beat a wildly mismatched ℓ=0.2.
	xs := make([]float64, 15)
	ys := make([]float64, 15)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = math.Sin(float64(i) / 4)
	}
	fit := func(ls float64) float64 {
		gp := NewGP(ls, 1, 0.01)
		if err := gp.Fit(xs, ys); err != nil {
			t.Fatal(err)
		}
		return gp.LogMarginalLikelihood()
	}
	good := fit(4)
	bad := fit(0.2)
	if good <= bad {
		t.Fatalf("LML(ℓ=4) = %v should exceed LML(ℓ=0.2) = %v on smooth data", good, bad)
	}
}

func TestLMLFiniteForConstantData(t *testing.T) {
	gp := NewGP(2, 1, 0.01)
	if err := gp.Fit([]float64{1, 2, 3}, []float64{5, 5, 5}); err != nil {
		t.Fatal(err)
	}
	if lml := gp.LogMarginalLikelihood(); math.IsNaN(lml) || math.IsInf(lml, 0) {
		t.Fatalf("LML = %v, want finite", lml)
	}
}

func TestFitWithModelSelectionKeepsWorking(t *testing.T) {
	s := New(32, 3)
	for i := 0; i < 10; i++ {
		s.observe(float64(i+1), float64(i%5))
	}
	sc := borrow(s.scratchSize())
	defer sc.release()
	if err := s.fitWithModelSelection(sc.buf); err != nil {
		t.Fatal(err)
	}
	if s.win < 0 {
		t.Fatal("model selection selected no candidate")
	}
	if ls := s.cands[s.win].ls; ls <= 0 {
		t.Fatalf("length scale = %v", ls)
	}
}
