package linalg

import (
	"fmt"
	"math"
)

// Chol is a growable Cholesky factorisation of a symmetric
// positive-definite matrix, stored as a row-major packed lower
// triangle: row i occupies data[i(i+1)/2 : i(i+1)/2+i+1]. It is built
// for the Gaussian Process surrogate's sliding observation window:
//
//   - AppendRow extends an n×n factor to (n+1)×(n+1) given the new
//     bordering row of the underlying matrix, in O(n²) — the bordered
//     recurrence is exactly the inner loop of a full factorisation, so
//     building a factor row by row is bit-identical to factorising the
//     full matrix at once.
//   - DropFirst deletes the first row/column of the underlying matrix
//     in O(n²) via a positive rank-1 update, instead of the O(n³)
//     refactorisation a fresh fit would need.
//   - AppendRow3 and DropFirst3 do the same to three factors of one
//     size at once, for the searcher's three length-scale candidates.
//
// The packed layout touches n(n+1)/2 floats with direct indexing, so
// solves run without the bounds checks and zero upper triangle of a
// dense row-major matrix.
type Chol struct {
	n    int
	data []float64
	xbuf []float64 // DropFirst update-vector scratch
}

// PackedSize is the storage of an n×n factor's packed lower triangle,
// in float64s.
func PackedSize(n int) int { return n * (n + 1) / 2 }

// NewChol returns an empty factor with capacity reserved for an n×n
// matrix, DropFirst's scratch included, in one block.
func NewChol(n int) *Chol {
	if n < 0 {
		n = 0
	}
	tri := PackedSize(n)
	buf := make([]float64, tri+n)
	return &Chol{data: buf[:0:tri], xbuf: buf[tri:]}
}

// Rehome moves the factor's packed triangle into caller-owned storage,
// carrying the current factor over: tri has capacity PackedSize(n) for
// the largest n×n factor it will hold, and grows on demand past that.
func (c *Chol) Rehome(tri []float64) {
	c.data = append(tri[:0], c.data...)
}

// Size returns the current dimension of the factored matrix.
func (c *Chol) Size() int { return c.n }

// Reset empties the factor, keeping its storage.
func (c *Chol) Reset() {
	c.n = 0
	c.data = c.data[:0]
}

// At returns L[i][j] for j ≤ i. It is meant for tests and diagnostics;
// hot paths index the packed triangle directly.
func (c *Chol) At(i, j int) float64 {
	if i < 0 || i >= c.n || j < 0 || j > i {
		panic(fmt.Sprintf("linalg: Chol index (%d,%d) out of range for size %d", i, j, c.n))
	}
	return c.data[i*(i+1)/2+j]
}

// AppendRow grows the factor from n×n to (n+1)×(n+1). row holds the
// new bordering row of the underlying matrix A: row[j] = A[n][j] for
// j ≤ n, with row[n] the new diagonal element. It returns
// ErrNotPositiveDefinite (leaving the factor unchanged) if the bordered
// matrix is not numerically positive-definite.
func (c *Chol) AppendRow(row []float64) error {
	n := c.n
	if len(row) != n+1 {
		panic(fmt.Sprintf("linalg: AppendRow length %d != %d", len(row), n+1))
	}
	base := len(c.data)
	c.data = append(c.data, row...)
	out := c.data[base : base+n+1]
	data := c.data
	// Forward-substitute: L[n][j] = (A[n][j] − Σ_{k<j} L[n][k]·L[j][k]) / L[j][j].
	joff := 0 // j*(j+1)/2, advanced incrementally
	for j := 0; j < n; j++ {
		lrow := data[joff : joff+j+1]
		s := out[j]
		for k := 0; k < j; k++ {
			s -= out[k] * lrow[k]
		}
		out[j] = s / lrow[j]
		joff += j + 1
	}
	d := out[n]
	for k := 0; k < n; k++ {
		d -= out[k] * out[k]
	}
	return c.closeRow(base, d)
}

// closeRow finishes an append whose new row starts at data[base]: d is
// the new diagonal's square. A non-positive or NaN d rejects the row,
// leaving the factor as it was before the append.
func (c *Chol) closeRow(base int, d float64) error {
	if d <= 0 || math.IsNaN(d) {
		c.data = c.data[:base]
		return ErrNotPositiveDefinite
	}
	c.data[base+c.n] = math.Sqrt(d)
	c.n++
	return nil
}

// AppendRow3 runs AppendRow on three factors of one size with their
// loops interleaved, as SolveInto3 does for solves: r0, r1 and r2 are
// the bordering rows of c0, c1 and c2. Each stream performs exactly the
// operations its own AppendRow would, in the same order, so the factors
// are bitwise those of three AppendRow calls. Each factor accepts or
// rejects its row on its own: e0, e1 and e2 are the three AppendRow
// errors, and a rejected factor is left unchanged while the others
// grow.
func AppendRow3(c0, c1, c2 *Chol, r0, r1, r2 []float64) (e0, e1, e2 error) {
	n := c0.n
	if c1.n != n || c2.n != n {
		panic(fmt.Sprintf("linalg: AppendRow3 sizes %d,%d,%d differ", c0.n, c1.n, c2.n))
	}
	if len(r0) != n+1 || len(r1) != n+1 || len(r2) != n+1 {
		panic(fmt.Sprintf("linalg: AppendRow3 lengths %d,%d,%d != %d", len(r0), len(r1), len(r2), n+1))
	}
	base := len(c0.data)
	c0.data = append(c0.data, r0...)
	c1.data = append(c1.data, r1...)
	c2.data = append(c2.data, r2...)
	d0, d1, d2 := c0.data, c1.data, c2.data
	o0, o1, o2 := d0[base:base+n+1], d1[base:base+n+1], d2[base:base+n+1]
	joff := 0
	for j := 0; j < n; j++ {
		l0, l1, l2 := d0[joff:joff+j+1], d1[joff:joff+j+1], d2[joff:joff+j+1]
		s0, s1, s2 := o0[j], o1[j], o2[j]
		for k := 0; k < j; k++ {
			s0 -= o0[k] * l0[k]
			s1 -= o1[k] * l1[k]
			s2 -= o2[k] * l2[k]
		}
		o0[j] = s0 / l0[j]
		o1[j] = s1 / l1[j]
		o2[j] = s2 / l2[j]
		joff += j + 1
	}
	q0, q1, q2 := o0[n], o1[n], o2[n]
	for k := 0; k < n; k++ {
		q0 -= o0[k] * o0[k]
		q1 -= o1[k] * o1[k]
		q2 -= o2[k] * o2[k]
	}
	return c0.closeRow(base, q0), c1.closeRow(base, q1), c2.closeRow(base, q2)
}

// DropFirst removes the first row and column of the underlying matrix:
// if A = L·Lᵀ then A[1:,1:] = L₂₂·L₂₂ᵀ + l₂₁·l₂₁ᵀ, so the new factor is
// the positive rank-1 update of the trailing submatrix's factor by the
// first column — numerically stable (LINPACK dchud) and O(n²).
// Dropping from an empty factor panics.
func (c *Chol) DropFirst() {
	if c.n == 0 {
		panic("linalg: DropFirst on empty factor")
	}
	n := c.n - 1
	if n == 0 {
		c.Reset()
		return
	}
	// x = l21: the first column below the diagonal, consumed in place
	// as the update vector while rows compact forward.
	if cap(c.xbuf) < n {
		c.xbuf = make([]float64, n)
	}
	x := c.xbuf[:n]
	for i := 0; i < n; i++ {
		x[i] = c.data[(i+1)*(i+2)/2]
	}
	// Compact the trailing factor L22 into rows 0..n-1.
	for i := 0; i < n; i++ {
		src := c.data[(i+1)*(i+2)/2+1 : (i+1)*(i+2)/2+i+2]
		dst := c.data[i*(i+1)/2 : i*(i+1)/2+i+1]
		copy(dst, src)
	}
	c.n = n
	c.data = c.data[:n*(n+1)/2]
	// Rank-1 update: L22·L22ᵀ += x·xᵀ column by column.
	data := c.data
	doff := 0 // k*(k+1)/2, advanced incrementally
	for k := 0; k < n; k++ {
		diag := data[doff+k]
		r := math.Hypot(diag, x[k])
		cos := r / diag
		sin := x[k] / diag
		data[doff+k] = r
		off := doff + 2*k + 1 // (k+1)*(k+2)/2 + k: column k entry of row k+1
		for i := k + 1; i < n; i++ {
			v := data[off]
			v = (v + sin*x[i]) / cos
			data[off] = v
			x[i] = cos*x[i] - sin*v
			off += i + 1
		}
		doff += k + 1
	}
}

// DropFirst3 runs DropFirst on three factors of one size with their
// loops interleaved. x is the update vectors' scratch: at least
// 3·(Size−1) floats, holding nothing before or after the call. Each
// stream performs exactly the operations its own DropFirst would, in
// the same order, so the factors are bitwise those of three DropFirst
// calls; dropping from empty factors panics.
//
// Unlike DropFirst it compacts and updates in one pass: column k of
// the new factor is read from column k+1 of the old one, one row down
// — new (i, k) from old (i+1, k+1) — and written in place, column by
// column. The write is safe because new (i, k) occupies the slot of old
// (i, k), which was already consumed: as new (i−1, k−1) in column k−1,
// or, for k = 0, by the first-column gather into x. The read is safe
// because old (i+1, k+1) occupies the slot of new (i+1, k+1), which is
// not written until column k+1.
func DropFirst3(c0, c1, c2 *Chol, x []float64) {
	if c1.n != c0.n || c2.n != c0.n {
		panic(fmt.Sprintf("linalg: DropFirst3 sizes %d,%d,%d differ", c0.n, c1.n, c2.n))
	}
	if c0.n == 0 {
		panic("linalg: DropFirst3 on empty factors")
	}
	n := c0.n - 1
	if n == 0 {
		c0.Reset()
		c1.Reset()
		c2.Reset()
		return
	}
	x0, x1, x2 := x[:n], x[n:2*n], x[2*n:3*n]
	d0, d1, d2 := c0.data, c1.data, c2.data
	off := 1 // (i+1)(i+2)/2: old (i+1, 0)
	for i := 0; i < n; i++ {
		x0[i], x1[i], x2[i] = d0[off], d1[off], d2[off]
		off += i + 2
	}
	doff := 0 // k(k+1)/2: new (k, 0)
	for k := 0; k < n; k++ {
		src := doff + 2*k + 2 // old (k+1, k+1)
		g0, g1, g2 := d0[src], d1[src], d2[src]
		r0, r1, r2 := math.Hypot(g0, x0[k]), math.Hypot(g1, x1[k]), math.Hypot(g2, x2[k])
		cos0, cos1, cos2 := r0/g0, r1/g1, r2/g2
		sin0, sin1, sin2 := x0[k]/g0, x1[k]/g1, x2[k]/g2
		d0[doff+k], d1[doff+k], d2[doff+k] = r0, r1, r2
		dst := doff + 2*k + 1 // new (k+1, k)
		for i := k + 1; i < n; i++ {
			src := dst + i + 2 // old (i+1, k+1)
			v0 := (d0[src] + sin0*x0[i]) / cos0
			v1 := (d1[src] + sin1*x1[i]) / cos1
			v2 := (d2[src] + sin2*x2[i]) / cos2
			d0[dst], d1[dst], d2[dst] = v0, v1, v2
			x0[i] = cos0*x0[i] - sin0*v0
			x1[i] = cos1*x1[i] - sin1*v1
			x2[i] = cos2*x2[i] - sin2*v2
			dst += i + 1
		}
		doff += k + 1
	}
	tri := PackedSize(n)
	c0.n, c0.data = n, d0[:tri]
	c1.n, c1.data = n, d1[:tri]
	c2.n, c2.data = n, d2[:tri]
}

// SolveLowerInto solves L·x = b by forward substitution, writing into
// x (which may alias b). It panics on length mismatches.
func (c *Chol) SolveLowerInto(x, b []float64) {
	n := c.n
	if len(b) != n || len(x) != n {
		panic(fmt.Sprintf("linalg: SolveLowerInto lengths %d,%d != %d", len(x), len(b), n))
	}
	data := c.data
	ioff := 0 // i*(i+1)/2, advanced incrementally
	for i := 0; i < n; i++ {
		row := data[ioff : ioff+i+1]
		s := b[i]
		for k := 0; k < i; k++ {
			s -= row[k] * x[k]
		}
		x[i] = s / row[i]
		ioff += i + 1
	}
}

// SolveInto solves A·x = b (A = L·Lᵀ) via forward then backward
// substitution, writing into x (which may alias b).
func (c *Chol) SolveInto(x, b []float64) {
	n := c.n
	c.SolveLowerInto(x, b)
	data := c.data
	doff := n*(n+1)/2 - 1 // i*(i+1)/2 + i for i = n-1, decremented incrementally
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		off := doff + i + 1 // k*(k+1)/2 + i for k = i+1
		for k := i + 1; k < n; k++ {
			s -= data[off] * x[k]
			off += k + 1
		}
		x[i] = s / data[doff]
		doff -= i + 1
	}
}

// SolveInto3 runs three independent SolveInto solves — one per factor,
// which must share a dimension — with their loops interleaved. Each
// stream performs exactly the operations its own SolveInto would, in
// the same order, so results are bitwise identical; interleaving only
// overlaps the three sequential dependency chains (each forward or
// backward step waits on the previous row's divide), which is where a
// lone triangular solve stalls. The GP model-selection refit, which
// solves one alpha per length-scale candidate per decision, is the
// intended caller.
func SolveInto3(c0, c1, c2 *Chol, x0, b0, x1, b1, x2, b2 []float64) {
	n := c0.n
	if c1.n != n || c2.n != n {
		panic(fmt.Sprintf("linalg: SolveInto3 sizes %d,%d,%d differ", c0.n, c1.n, c2.n))
	}
	if len(x0) != n || len(b0) != n || len(x1) != n || len(b1) != n || len(x2) != n || len(b2) != n {
		panic("linalg: SolveInto3 length mismatch")
	}
	d0, d1, d2 := c0.data, c1.data, c2.data
	ioff := 0
	for i := 0; i < n; i++ {
		r0 := d0[ioff : ioff+i+1]
		r1 := d1[ioff : ioff+i+1]
		r2 := d2[ioff : ioff+i+1]
		s0, s1, s2 := b0[i], b1[i], b2[i]
		for k := 0; k < i; k++ {
			s0 -= r0[k] * x0[k]
			s1 -= r1[k] * x1[k]
			s2 -= r2[k] * x2[k]
		}
		x0[i] = s0 / r0[i]
		x1[i] = s1 / r1[i]
		x2[i] = s2 / r2[i]
		ioff += i + 1
	}
	doff := n*(n+1)/2 - 1
	for i := n - 1; i >= 0; i-- {
		s0, s1, s2 := x0[i], x1[i], x2[i]
		off := doff + i + 1
		for k := i + 1; k < n; k++ {
			s0 -= d0[off] * x0[k]
			s1 -= d1[off] * x1[k]
			s2 -= d2[off] * x2[k]
			off += k + 1
		}
		x0[i] = s0 / d0[doff]
		x1[i] = s1 / d1[doff]
		x2[i] = s2 / d2[doff]
		doff -= i + 1
	}
}

// LogDet returns log|A| = 2·Σ log L[i][i].
func (c *Chol) LogDet() float64 {
	s := 0.0
	for i := 0; i < c.n; i++ {
		s += math.Log(c.data[i*(i+1)/2+i])
	}
	return 2 * s
}
