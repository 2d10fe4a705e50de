package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randSPD builds a random n×n SPD matrix A = BᵀB + n·I.
func randSPD(n int, rng *rand.Rand) *Matrix {
	b := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b.Set(i, j, rng.NormFloat64())
		}
	}
	a := b.Transpose().Mul(b)
	for i := 0; i < n; i++ {
		a.Add(i, i, float64(n))
	}
	return a
}

// buildChol factors a via successive AppendRow calls.
func buildChol(t *testing.T, a *Matrix) *Chol {
	t.Helper()
	n := a.Rows()
	c := NewChol(n)
	row := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		row = row[:0]
		for j := 0; j <= i; j++ {
			row = append(row, a.At(i, j))
		}
		if err := c.AppendRow(row); err != nil {
			t.Fatalf("AppendRow %d: %v", i, err)
		}
	}
	return c
}

// TestAppendRowMatchesDenseCholesky: building the factor row by row is
// bit-identical to the dense factorisation — the invariant that makes
// the GP's incremental fit produce the same numbers as a full refit.
func TestAppendRowMatchesDenseCholesky(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 5, 12, 20} {
		a := randSPD(n, rng)
		want, err := Cholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		c := buildChol(t, a)
		if c.Size() != n {
			t.Fatalf("size = %d, want %d", c.Size(), n)
		}
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				if got := c.At(i, j); got != want.At(i, j) {
					t.Fatalf("n=%d: L[%d][%d] = %v, want %v (not bit-identical)", n, i, j, got, want.At(i, j))
				}
			}
		}
	}
}

func TestAppendRowRejectsNonPD(t *testing.T) {
	c := NewChol(2)
	if err := c.AppendRow([]float64{1}); err != nil {
		t.Fatal(err)
	}
	// Second row makes the matrix singular: [[1,1],[1,1]].
	if err := c.AppendRow([]float64{1, 1}); err == nil {
		t.Fatal("AppendRow accepted a singular matrix")
	}
	if c.Size() != 1 {
		t.Fatalf("failed append mutated the factor: size %d", c.Size())
	}
}

// TestDropFirstMatchesRefactorisation: dropping the first row/column
// must agree with factoring the trailing submatrix from scratch (up to
// rank-1-update rounding).
func TestDropFirstMatchesRefactorisation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{2, 3, 8, 20} {
		a := randSPD(n, rng)
		c := buildChol(t, a)
		c.DropFirst()

		sub := NewMatrix(n-1, n-1)
		for i := 1; i < n; i++ {
			for j := 1; j < n; j++ {
				sub.Set(i-1, j-1, a.At(i, j))
			}
		}
		want, err := Cholesky(sub)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n-1; i++ {
			for j := 0; j <= i; j++ {
				if got := c.At(i, j); math.Abs(got-want.At(i, j)) > 1e-9*(1+math.Abs(want.At(i, j))) {
					t.Fatalf("n=%d: L[%d][%d] = %v, want %v", n, i, j, got, want.At(i, j))
				}
			}
		}
	}
}

func TestDropFirstToEmpty(t *testing.T) {
	c := NewChol(1)
	if err := c.AppendRow([]float64{4}); err != nil {
		t.Fatal(err)
	}
	c.DropFirst()
	if c.Size() != 0 {
		t.Fatalf("size = %d, want 0", c.Size())
	}
}

func TestCholSolveMatchesSolveCholesky(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 12
	a := randSPD(n, rng)
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	want := SolveCholesky(l, b)

	c := buildChol(t, a)
	got := make([]float64, n)
	c.SolveInto(got, b)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
			t.Fatalf("x[%d] = %v, want %v", i, got[i], want[i])
		}
	}

	// Forward solve only.
	wantLower := SolveLower(l, b)
	gotLower := make([]float64, n)
	c.SolveLowerInto(gotLower, b)
	for i := range wantLower {
		if gotLower[i] != wantLower[i] {
			t.Fatalf("lower x[%d] = %v, want %v", i, gotLower[i], wantLower[i])
		}
	}

	if got, want := c.LogDet(), LogDetFromCholesky(l); math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
		t.Fatalf("LogDet = %v, want %v", got, want)
	}
}

// TestSlidingWindowSequence simulates the GP's window: append to 20,
// then repeatedly drop-and-append, checking solves stay close to a
// from-scratch factorisation throughout.
func TestSlidingWindowSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	const window = 20
	kernel := func(a, b float64) float64 {
		d := (a - b) / 4
		v := math.Exp(-0.5 * d * d)
		if a == b {
			v += 0.02
		}
		return v
	}
	var xs []float64
	c := NewChol(window)
	row := make([]float64, 0, window)
	for step := 0; step < 60; step++ {
		x := float64(step) + 0.1*rng.Float64()
		if len(xs) == window {
			xs = xs[1:]
			c.DropFirst()
		}
		xs = append(xs, x)
		row = row[:0]
		for _, xi := range xs {
			row = append(row, kernel(x, xi))
		}
		if err := c.AppendRow(row); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}

		if step%10 != 9 {
			continue
		}
		n := len(xs)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, kernel(xs[i], xs[j]))
			}
		}
		want, err := Cholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = math.Sin(float64(i))
		}
		wantX := SolveCholesky(want, b)
		gotX := make([]float64, n)
		c.SolveInto(gotX, b)
		for i := range wantX {
			if math.Abs(gotX[i]-wantX[i]) > 1e-8*(1+math.Abs(wantX[i])) {
				t.Fatalf("step %d: x[%d] = %v, want %v", step, i, gotX[i], wantX[i])
			}
		}
	}
}

// cloneChol copies a factor so a single-factor oracle and an
// interleaved call can start from the same state.
func cloneChol(c *Chol) *Chol {
	return &Chol{n: c.n, data: append([]float64(nil), c.data...)}
}

// diagDominantSPD builds a random symmetric n×n matrix whose diagonal
// exceeds its row's off-diagonal mass, hence SPD, in O(n²) — cheap
// enough to build a hundred of them per size.
func diagDominantSPD(n int, rng *rand.Rand) *Matrix {
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			v := 2*rng.Float64() - 1
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
		a.Set(i, i, float64(n)+rng.Float64())
	}
	return a
}

// requireSameBits fails unless got and want hold bitwise-identical
// factors.
func requireSameBits(t *testing.T, what string, got, want *Chol) {
	t.Helper()
	if got.n != want.n || len(got.data) != len(want.data) {
		t.Fatalf("%s: size %d (%d floats), want %d (%d floats)", what, got.n, len(got.data), want.n, len(want.data))
	}
	for i := range want.data {
		if math.Float64bits(got.data[i]) != math.Float64bits(want.data[i]) {
			t.Fatalf("%s: packed entry %d = %v, want %v (not bit-identical)", what, i, got.data[i], want.data[i])
		}
	}
}

// TestInterleavedUpdatesMatchSingleCalls is the seeded property behind
// the searcher's refit: for every size up to the 100-point window the
// longest ablation uses, DropFirst3 and AppendRow3 leave three factors
// bitwise equal to three DropFirst or AppendRow calls, including rows
// that one factor rejects as not positive-definite while the others
// accept theirs.
func TestInterleavedUpdatesMatchSingleCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for n := 1; n <= 100; n++ {
		var base [3]*Chol
		var border [3][]float64
		for f := range base {
			a := diagDominantSPD(n+1, rng)
			sub := NewMatrix(n, n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					sub.Set(i, j, a.At(i, j))
				}
			}
			base[f] = buildChol(t, sub)
			for j := 0; j <= n; j++ {
				border[f] = append(border[f], a.At(n, j))
			}
		}

		// DropFirst3 against three DropFirst calls.
		var got, want [3]*Chol
		for f := range base {
			got[f], want[f] = cloneChol(base[f]), cloneChol(base[f])
			want[f].DropFirst()
		}
		x := make([]float64, 3*n)
		for i := range x {
			x[i] = math.NaN() // scratch holds nothing on entry
		}
		DropFirst3(got[0], got[1], got[2], x)
		for f := range got {
			requireSameBits(t, fmt.Sprintf("n=%d DropFirst3 factor %d", n, f), got[f], want[f])
		}

		// AppendRow3 against three AppendRow calls: all accepted, then
		// each factor in turn handed a row it must reject.
		for reject := -1; reject < 3; reject++ {
			var rows [3][]float64
			for f := range rows {
				rows[f] = append([]float64(nil), border[f]...)
				if f == reject {
					rows[f][n] = -1 // makes the bordered matrix indefinite
				}
				got[f], want[f] = cloneChol(base[f]), cloneChol(base[f])
			}
			var wantErr [3]error
			for f := range want {
				wantErr[f] = want[f].AppendRow(append([]float64(nil), rows[f]...))
			}
			e0, e1, e2 := AppendRow3(got[0], got[1], got[2], rows[0], rows[1], rows[2])
			for f, err := range [3]error{e0, e1, e2} {
				if err != wantErr[f] {
					t.Fatalf("n=%d reject=%d: AppendRow3 factor %d error %v, want %v", n, reject, f, err, wantErr[f])
				}
				if (f == reject) != (err != nil) {
					t.Fatalf("n=%d reject=%d: factor %d error %v", n, reject, f, err)
				}
				requireSameBits(t, fmt.Sprintf("n=%d reject=%d AppendRow3 factor %d", n, reject, f), got[f], want[f])
			}
		}
	}
}

func TestInterleavedUpdatesPanicOnMismatchedSizes(t *testing.T) {
	small, big := NewChol(2), NewChol(2)
	if err := small.AppendRow([]float64{1}); err != nil {
		t.Fatal(err)
	}
	for _, r := range [][]float64{{1}, {0.5, 2}} {
		if err := big.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	for name, f := range map[string]func(){
		"DropFirst3": func() { DropFirst3(small, big, big, make([]float64, 6)) },
		"AppendRow3": func() { AppendRow3(small, big, big, []float64{0, 1}, []float64{0, 0, 1}, []float64{0, 0, 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted factors of different sizes", name)
				}
			}()
			f()
		}()
	}
}
