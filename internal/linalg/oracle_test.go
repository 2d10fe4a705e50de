package linalg

import (
	"fmt"
	"math"
)

// The dense row-major matrix, its textbook Cholesky factorisation and
// triangular solves are the reference the packed factor (Chol) is
// checked against; nothing in the simulator uses them.

// Matrix is a dense, row-major matrix of float64 values.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zero-valued rows×cols matrix.
// It panics if either dimension is not positive.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewMatrixFrom builds a rows×cols matrix from data given in row-major
// order. The slice is copied. It panics if len(data) != rows*cols.
func NewMatrixFrom(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("linalg: data length %d does not match %dx%d", len(data), rows, cols))
	}
	m := NewMatrix(rows, cols)
	copy(m.data, data)
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Rows reports the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols reports the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// Add increments the element at row i, column j by v.
func (m *Matrix) Add(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] += v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Transpose returns a new matrix that is the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Mul returns the matrix product m·other.
// It panics on a dimension mismatch.
func (m *Matrix) Mul(other *Matrix) *Matrix {
	if m.cols != other.rows {
		panic(fmt.Sprintf("linalg: cannot multiply %dx%d by %dx%d", m.rows, m.cols, other.rows, other.cols))
	}
	out := NewMatrix(m.rows, other.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.data[i*m.cols+k]
			if a == 0 {
				continue
			}
			for j := 0; j < other.cols; j++ {
				out.data[i*out.cols+j] += a * other.data[k*other.cols+j]
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product m·v.
// It panics if len(v) != m.Cols().
func (m *Matrix) MulVec(v []float64) []float64 {
	if len(v) != m.cols {
		panic(fmt.Sprintf("linalg: cannot multiply %dx%d by vector of length %d", m.rows, m.cols, len(v)))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		s := 0.0
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, x := range v {
			s += row[j] * x
		}
		out[i] = s
	}
	return out
}

// Cholesky computes the lower-triangular factor L of an SPD matrix A so
// that A = L·Lᵀ. The returned matrix has its strictly-upper triangle
// zeroed. It returns ErrNotPositiveDefinite if a non-positive pivot is
// encountered.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("linalg: Cholesky needs a square matrix, got %dx%d", a.rows, a.cols)
	}
	n := a.rows
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return nil, ErrNotPositiveDefinite
				}
				l.Set(i, i, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	return l, nil
}

// SolveLower solves L·x = b for x, where L is lower triangular with a
// non-zero diagonal (forward substitution).
func SolveLower(l *Matrix, b []float64) []float64 {
	n := l.rows
	if len(b) != n {
		panic(fmt.Sprintf("linalg: SolveLower vector length %d != %d", len(b), n))
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x
}

// SolveUpper solves U·x = b for x, where U is upper triangular with a
// non-zero diagonal (backward substitution). The matrix is addressed as
// the transpose of a lower-triangular factor: U[i][j] = L[j][i].
func SolveUpper(l *Matrix, b []float64) []float64 {
	n := l.rows
	if len(b) != n {
		panic(fmt.Sprintf("linalg: SolveUpper vector length %d != %d", len(b), n))
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x
}

// SolveSPD solves A·x = b for SPD A via Cholesky factorisation.
func SolveSPD(a *Matrix, b []float64) ([]float64, error) {
	l, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	return SolveUpper(l, SolveLower(l, b)), nil
}

// SolveCholesky solves A·x = b given a precomputed Cholesky factor L of
// A (A = L·Lᵀ).
func SolveCholesky(l *Matrix, b []float64) []float64 {
	return SolveUpper(l, SolveLower(l, b))
}

// LogDetFromCholesky returns log|A| given the Cholesky factor L of A:
// log|A| = 2·Σ log L[i][i].
func LogDetFromCholesky(l *Matrix) float64 {
	s := 0.0
	for i := 0; i < l.rows; i++ {
		s += math.Log(l.At(i, i))
	}
	return 2 * s
}
