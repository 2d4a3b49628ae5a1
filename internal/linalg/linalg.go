// Package linalg implements the dense linear algebra needed by the
// regression models in the DORA reproduction: a small row-major matrix
// type, Householder QR factorization, and linear least squares. It is
// self-contained (stdlib only) and tuned for the modest problem sizes
// that arise when fitting response-surface models (hundreds of rows,
// tens of columns).
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix returns a zero-valued Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (shared storage).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// MulVec returns m * x for a vector x of length m.Cols.
func (m *Matrix) MulVec(x []float64) ([]float64, error) {
	if len(x) != m.Cols {
		return nil, fmt.Errorf("linalg: MulVec dim mismatch: %d vs %d", len(x), m.Cols)
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// Transpose returns a new matrix that is the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Mul returns the matrix product m * other.
func (m *Matrix) Mul(other *Matrix) (*Matrix, error) {
	if m.Cols != other.Rows {
		return nil, fmt.Errorf("linalg: Mul dim mismatch: %dx%d * %dx%d",
			m.Rows, m.Cols, other.Rows, other.Cols)
	}
	out := NewMatrix(m.Rows, other.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			orow := other.Row(k)
			dst := out.Row(i)
			for j, v := range orow {
				dst[j] += a * v
			}
		}
	}
	return out, nil
}

// ErrSingular indicates a (numerically) rank-deficient system.
var ErrSingular = errors.New("linalg: singular or rank-deficient matrix")

// SolveLeastSquares solves min_x ||A x - b||_2 via Householder QR.
// A must have Rows >= Cols and full column rank; otherwise ErrSingular
// is returned. A and b are not modified.
func SolveLeastSquares(a *Matrix, b []float64) ([]float64, error) {
	if a.Rows != len(b) {
		return nil, fmt.Errorf("linalg: b has %d entries, A has %d rows", len(b), a.Rows)
	}
	if a.Rows < a.Cols {
		return nil, errors.New("linalg: underdetermined system (rows < cols)")
	}
	m, n := a.Rows, a.Cols
	r := a.Clone()
	qtb := append([]float64(nil), b...)

	// Householder QR: transform R in place, apply reflectors to qtb.
	for k := 0; k < n; k++ {
		// Column norm below the diagonal.
		norm := 0.0
		for i := k; i < m; i++ {
			v := r.At(i, k)
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			return nil, ErrSingular
		}
		alpha := -norm
		if r.At(k, k) < 0 {
			alpha = norm
		}
		// v = x - alpha*e1 (stored temporarily).
		v := make([]float64, m-k)
		v[0] = r.At(k, k) - alpha
		for i := k + 1; i < m; i++ {
			v[i-k] = r.At(i, k)
		}
		vnorm2 := 0.0
		for _, x := range v {
			vnorm2 += x * x
		}
		if vnorm2 == 0 {
			return nil, ErrSingular
		}
		// Apply H = I - 2 v v^T / (v^T v) to R[k:, k:] and qtb[k:].
		for j := k; j < n; j++ {
			dot := 0.0
			for i := k; i < m; i++ {
				dot += v[i-k] * r.At(i, j)
			}
			f := 2 * dot / vnorm2
			for i := k; i < m; i++ {
				r.Set(i, j, r.At(i, j)-f*v[i-k])
			}
		}
		dot := 0.0
		for i := k; i < m; i++ {
			dot += v[i-k] * qtb[i]
		}
		f := 2 * dot / vnorm2
		for i := k; i < m; i++ {
			qtb[i] -= f * v[i-k]
		}
	}

	// Back-substitute R x = Q^T b on the top n x n triangle.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		d := r.At(i, i)
		if math.Abs(d) < 1e-12 {
			return nil, ErrSingular
		}
		s := qtb[i]
		for j := i + 1; j < n; j++ {
			s -= r.At(i, j) * x[j]
		}
		x[i] = s / d
	}
	return x, nil
}

// Solve solves the square linear system A x = b using Gaussian
// elimination with partial pivoting. A and b are not modified.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("linalg: Solve requires a square matrix")
	}
	if a.Rows != len(b) {
		return nil, errors.New("linalg: Solve dimension mismatch")
	}
	n := a.Rows
	aug := a.Clone()
	x := append([]float64(nil), b...)
	for col := 0; col < n; col++ {
		// Partial pivot.
		piv, pv := col, math.Abs(aug.At(col, col))
		for i := col + 1; i < n; i++ {
			if v := math.Abs(aug.At(i, col)); v > pv {
				piv, pv = i, v
			}
		}
		if pv < 1e-14 {
			return nil, ErrSingular
		}
		if piv != col {
			ri, rc := aug.Row(piv), aug.Row(col)
			for j := range ri {
				ri[j], rc[j] = rc[j], ri[j]
			}
			x[piv], x[col] = x[col], x[piv]
		}
		d := aug.At(col, col)
		for i := col + 1; i < n; i++ {
			f := aug.At(i, col) / d
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				aug.Set(i, j, aug.At(i, j)-f*aug.At(col, j))
			}
			x[i] -= f * x[col]
		}
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= aug.At(i, j) * x[j]
		}
		x[i] = s / aug.At(i, i)
	}
	return x, nil
}

// Dot returns the inner product of a and b (panics on length mismatch).
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot length mismatch")
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
