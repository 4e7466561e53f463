// Package linalg provides the small dense linear algebra kernel the
// regression layer needs: column-major matrices and a Householder QR
// least-squares solver. Householder QR is used instead of the normal
// equations because the counter matrices are badly conditioned (counters
// are strongly correlated by construction), and XᵀX squares the condition
// number.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %d×%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices (all equal length).
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, errors.New("linalg: empty matrix")
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			return nil, fmt.Errorf("linalg: ragged rows: row %d has %d cols, want %d", i, len(r), m.Cols)
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m, nil
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// MulVec computes m·x.
func (m *Matrix) MulVec(x []float64) ([]float64, error) {
	if len(x) != m.Cols {
		return nil, fmt.Errorf("linalg: MulVec: len(x) = %d, want %d", len(x), m.Cols)
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// ErrRankDeficient is returned when the least-squares system has
// (numerically) linearly dependent columns.
var ErrRankDeficient = errors.New("linalg: rank-deficient system")

// QR is a Householder QR factorization of a least-squares system
// min‖A·x − b‖₂, with the reflectors already applied to b.
//
// Householder QR works on the columns left to right, and step k reads and
// writes only column k and the columns to its right. The factorization's
// leading k columns — R's leading k×k block and the first k entries of
// Qᵀb — are therefore bit-identical to a factorization of A's first k
// columns alone, and Solve(k) reads the least-squares solution of that
// prefix by back substitution on the block: one factorization serves a
// whole chain of nested designs, as forward selection's prefix refits
// need.
type QR struct {
	n        int       // columns of A
	factored int       // leading columns factored: an all-zero column stops the factorization
	data     []float64 // m×n row-major: R on and above the diagonal, reflectors below
	rhs      []float64 // Qᵀb
	proj     []float64 // per-column reflector projections (factorization scratch)
}

// Factor computes the Householder QR factorization of A, applying the
// reflectors to b. A must have at least as many rows as columns; A and b
// are not modified.
//
// A column that is entirely zero below the diagonal once the reflectors
// of the columns before it are applied has no reflector; the
// factorization stops there, and Solve reports ErrRankDeficient for every
// prefix that includes it, as SolveLS does.
//
// The reflectors are applied to all trailing columns in two row-major
// sweeps per step (gather the projections, then update), so the inner
// loops walk the Data slice contiguously instead of striding down
// columns.
func Factor(a *Matrix, b []float64) (*QR, error) {
	if len(b) != a.Rows {
		return nil, fmt.Errorf("linalg: Factor: len(b) = %d, want %d", len(b), a.Rows)
	}
	if a.Rows < a.Cols {
		return nil, fmt.Errorf("linalg: Factor: underdetermined system %d×%d", a.Rows, a.Cols)
	}
	m, n := a.Rows, a.Cols
	q := &QR{n: n, factored: n, data: make([]float64, m*n), rhs: make([]float64, m), proj: make([]float64, n)}
	data, rhs, proj := q.data, q.rhs, q.proj
	copy(data, a.Data)
	copy(rhs, b)

	for k := 0; k < n; k++ {
		// Norm of the k-th column below the diagonal, scaled by the
		// largest magnitude so squaring cannot overflow or underflow.
		var scale float64
		for i := k; i < m; i++ {
			if v := math.Abs(data[i*n+k]); v > scale {
				scale = v
			}
		}
		if scale == 0 {
			q.factored = k
			break
		}
		var ssq float64
		invScale := 1 / scale
		for i := k; i < m; i++ {
			v := data[i*n+k] * invScale
			ssq += v * v
		}
		norm := scale * math.Sqrt(ssq)
		// Choose the reflector sign that avoids cancellation when the
		// diagonal element is shifted by 1 below.
		if data[k*n+k] < 0 {
			norm = -norm
		}
		invNorm := 1 / norm
		for i := k; i < m; i++ {
			data[i*n+k] *= invNorm
		}
		data[k*n+k]++

		// Apply the reflector to the remaining columns and rhs: one pass
		// gathers every column's projection onto the reflector, a second
		// pass subtracts; both touch each matrix row exactly once.
		s := proj[k+1:]
		for j := range s {
			s[j] = 0
		}
		var sr float64
		for i := k; i < m; i++ {
			row := data[i*n : i*n+n]
			vi := row[k]
			if vi == 0 {
				continue
			}
			for j, aij := range row[k+1:] {
				s[j] += vi * aij
			}
			sr += vi * rhs[i]
		}
		invDiag := -1 / data[k*n+k]
		for j := range s {
			s[j] *= invDiag
		}
		sr *= invDiag
		for i := k; i < m; i++ {
			row := data[i*n : i*n+n]
			vi := row[k]
			if vi == 0 {
				continue
			}
			for j := range row[k+1:] {
				row[k+1+j] += s[j] * vi
			}
			rhs[i] += sr * vi
		}
		data[k*n+k] = -norm // store R's diagonal
	}
	return q, nil
}

// Solve returns the least-squares solution over A's first k columns,
// bit-identical to SolveLS on a copy of those columns (and to its
// ErrRankDeficient when they are numerically dependent). Solve(A.Cols)
// solves the full system.
func (q *QR) Solve(k int) ([]float64, error) {
	if k < 0 || k > q.n {
		return nil, fmt.Errorf("linalg: Solve: prefix %d outside [0, %d]", k, q.n)
	}
	if k > q.factored {
		return nil, ErrRankDeficient
	}
	// Back substitution on R[:k, :k]·x = (Qᵀb)[:k].
	data, n := q.data, q.n
	x := make([]float64, k)
	for r := k - 1; r >= 0; r-- {
		d := data[r*n+r]
		if math.Abs(d) < 1e-12 {
			return nil, ErrRankDeficient
		}
		s := q.rhs[r]
		for j := r + 1; j < k; j++ {
			s -= data[r*n+j] * x[j]
		}
		x[r] = s / d
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, ErrRankDeficient
		}
	}
	return x, nil
}

// SolveLS solves min‖A·x − b‖₂ for x via Householder QR: Factor, then
// Solve at full width. A must have at least as many rows as columns. A
// and b are not modified. It sits under every least-squares fit of the
// regression layer; a caller solving several nested column prefixes of
// one design factors once with Factor instead.
func SolveLS(a *Matrix, b []float64) ([]float64, error) {
	q, err := Factor(a, b)
	if err != nil {
		return nil, err
	}
	return q.Solve(a.Cols)
}
