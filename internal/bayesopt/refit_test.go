package bayesopt

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
	"repro/internal/optimizer"
)

// sameFactor fails unless a and b are bitwise-identical factors.
func sameFactor(t *testing.T, what string, a, b *linalg.Chol) {
	t.Helper()
	if a.Size() != b.Size() {
		t.Fatalf("%s: factor size %d, want %d", what, a.Size(), b.Size())
	}
	for i := 0; i < a.Size(); i++ {
		for j := 0; j <= i; j++ {
			if x, y := a.At(i, j), b.At(i, j); math.Float64bits(x) != math.Float64bits(y) {
				t.Fatalf("%s: L[%d][%d] = %v, want %v (not bit-identical)", what, i, j, x, y)
			}
		}
	}
}

// panics reports whether f panics.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// TestRefitMatchesIndependentFits drives searchers through seeded
// observation streams — windows of 5, 20 and 100, repeated
// concurrencies, skipped non-finite utilities and a window that
// shrinks mid-run — and checks after every decision that the one
// refit left each candidate's factor, the winner's choice, its weights
// and its target scaling bitwise equal to three independent GP.Fit
// calls on the same window.
func TestRefitMatchesIndependentFits(t *testing.T) {
	for _, tc := range []struct {
		maxN, window, steps int
		seed                int64
	}{
		{8, 20, 80, 1},
		{32, 20, 80, 2},
		{32, 5, 40, 3},
		{32, 100, 160, 4},
		{3, 20, 60, 5}, // few distinct inputs: constant-window slides
	} {
		t.Run(fmt.Sprintf("maxN=%d,window=%d", tc.maxN, tc.window), func(t *testing.T) {
			s := New(tc.maxN, tc.seed)
			s.Window = tc.window
			var ref [3]*GP
			for c := range ref {
				ref[c] = NewGP(s.cands[c].ls, searchSignalVar, searchNoiseVar)
			}
			rng := rand.New(rand.NewSource(tc.seed))
			n := 1
			for step := 0; step < tc.steps; step++ {
				if step == tc.steps*3/4 && tc.window > 5 {
					s.Window = tc.window / 2 // evicts several points at once
				}
				u := math.Sin(float64(n)/3) + 0.1*rng.NormFloat64()
				if rng.Intn(10) == 0 {
					u = math.NaN()
				}
				n = s.Next(optimizer.Observation{N: n, Utility: u})
				if rng.Intn(4) == 0 {
					n = 1 + rng.Intn(tc.maxN) // off-policy probes vary the window
				}
				if s.seen < s.InitSamples {
					continue
				}
				xs, ys := s.Observations()
				bestLML, win := math.Inf(-1), -1
				for c, g := range ref {
					if err := g.Fit(xs, ys); err != nil {
						t.Fatalf("step %d: reference fit %d: %v", step, c, err)
					}
					what := fmt.Sprintf("step %d candidate %d", step, c)
					sameFactor(t, what, &s.cands[c].chol, &g.chol)
					if lml := g.LogMarginalLikelihood(); lml > bestLML {
						bestLML, win = lml, c
					}
				}
				if int(s.win) != win {
					t.Fatalf("step %d: searcher selected candidate %d, want %d", step, s.win, win)
				}
				w := ref[win]
				if s.meanY != w.meanY || s.stdY != w.stdY {
					t.Fatalf("step %d: target scaling (%v, %v), want (%v, %v)", step, s.meanY, s.stdY, w.meanY, w.stdY)
				}
				if len(s.alpha) != len(w.alpha) {
					t.Fatalf("step %d: %d weights, want %d", step, len(s.alpha), len(w.alpha))
				}
				for i := range w.alpha {
					if math.Float64bits(s.alpha[i]) != math.Float64bits(w.alpha[i]) {
						t.Fatalf("step %d: alpha[%d] = %v, want %v", step, i, s.alpha[i], w.alpha[i])
					}
				}
			}
		})
	}
}
