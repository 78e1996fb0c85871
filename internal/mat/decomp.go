package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned by Cholesky when a pivot is not
// positive, i.e. the input matrix is not (numerically) positive definite.
var ErrNotPositiveDefinite = errors.New("mat: matrix is not positive definite")

// Cholesky computes the lower-triangular factor L with A = L Lᵀ for a
// symmetric positive definite matrix A. Only the lower triangle of A is
// read. It returns ErrNotPositiveDefinite if a non-positive pivot is
// encountered.
func Cholesky(a *Dense) (*Dense, error) {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("mat: Cholesky of non-square %dx%d matrix", a.Rows, a.Cols))
	}
	n := a.Rows
	l := NewDense(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		lrowj := l.RowView(j)
		for p := 0; p < j; p++ {
			d -= float64(lrowj[p] * lrowj[p])
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotPositiveDefinite
		}
		diag := math.Sqrt(d)
		lrowj[j] = diag
		inv := 1.0 / diag
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			lrowi := l.RowView(i)
			for p := 0; p < j; p++ {
				s -= float64(lrowi[p] * lrowj[p])
			}
			lrowi[j] = s * inv
		}
	}
	return l, nil
}

// SolveLowerTri solves L*x = b for x where L is lower triangular
// (forward substitution). b is not modified.
func SolveLowerTri(l *Dense, b []float64) []float64 {
	n := l.Rows
	if len(b) != n {
		panic(fmt.Sprintf("mat: SolveLowerTri: rhs length %d for %dx%d", len(b), l.Rows, l.Cols))
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		row := l.RowView(i)
		for j := 0; j < i; j++ {
			s -= float64(row[j] * x[j])
		}
		x[i] = s / row[i]
	}
	return x
}

// SolveUpperTriFromLowerT solves Lᵀ*x = b by back substitution given the
// lower factor L (so the effective system matrix is upper triangular).
func SolveUpperTriFromLowerT(l *Dense, b []float64) []float64 {
	n := l.Rows
	if len(b) != n {
		panic(fmt.Sprintf("mat: SolveUpperTriFromLowerT: rhs length %d for %dx%d", len(b), l.Rows, l.Cols))
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < n; j++ {
			s -= float64(l.At(j, i) * x[j])
		}
		x[i] = s / l.At(i, i)
	}
	return x
}

// CholeskySolve solves A*x = b given the lower Cholesky factor L of A.
func CholeskySolve(l *Dense, b []float64) []float64 {
	return SolveUpperTriFromLowerT(l, SolveLowerTri(l, b))
}

// CholeskySolveMat solves A*X = B column-by-column given the lower Cholesky
// factor L of A.
func CholeskySolveMat(l *Dense, b *Dense) *Dense {
	if l.Rows != b.Rows {
		panic(dimErr("CholeskySolveMat", l, b))
	}
	out := NewDense(b.Rows, b.Cols)
	for j := 0; j < b.Cols; j++ {
		out.SetCol(j, CholeskySolve(l, b.Col(j)))
	}
	return out
}

// OrthonormalizeRows replaces the rows of a (r x c, r <= c) in place with
// an orthonormal basis of their span, by modified Gram-Schmidt with one
// reorthogonalization pass: row j is projected off rows 0..j-1 twice, then
// scaled to unit length. A row whose remainder after the projections has
// norm at most 1e-300 (an exact multiple of an earlier row, say) becomes
// zero.
//
// Each basis vector is one contiguous row, so every dot product and update
// streams memory. Each sum runs over the row in index order and each row
// sees its projections in the same order, so the result is bit-identical
// to the same Gram-Schmidt run down the columns of aᵀ. Row j's second pass
// and row j+1's first pass read the same finished rows 0..j-1 and do not
// depend on each other, so they run as two dot-product chains in one sweep.
func OrthonormalizeRows(a *Dense) {
	if a.Rows > a.Cols {
		panic(fmt.Sprintf("mat: OrthonormalizeRows needs rows <= cols, got %dx%d", a.Rows, a.Cols))
	}
	for j := 0; j < a.Rows; j++ {
		qj := a.RowView(j)
		if j > 0 {
			// The last step of row j's first pass; the steps before it ran
			// with row j-1's second pass.
			project(qj, a.RowView(j-1))
		}
		if j+1 < a.Rows {
			next := a.RowView(j + 1)
			for p := 0; p < j; p++ {
				project2(qj, next, a.RowView(p))
			}
		} else {
			for p := 0; p < j; p++ {
				project(qj, a.RowView(p))
			}
		}
		norm := math.Sqrt(Dot(qj, qj))
		if norm > 1e-300 {
			inv := 1.0 / norm
			for i := range qj {
				qj[i] *= inv
			}
		} else {
			clear(qj)
		}
	}
}

// project computes x -= (v·x) v.
func project(x, v []float64) {
	s := Dot(v, x)
	x = x[:len(v)]
	for i, vi := range v {
		x[i] -= float64(s * vi)
	}
}

// project2 is project on x and on y, with the two dot products as
// independent chains in one sweep over v.
func project2(x, y, v []float64) {
	x, y = x[:len(v)], y[:len(v)]
	var sx, sy float64
	for i, vi := range v {
		sx += float64(vi * x[i])
		sy += float64(vi * y[i])
	}
	for i, vi := range v {
		x[i] -= float64(sx * vi)
		y[i] -= float64(sy * vi)
	}
}
