// Package mat implements the dense linear algebra substrate used by the
// EigenPro 2.0 reproduction: a row-major float64 matrix type, parallel
// matrix products, elementwise and reduction operations, and the
// factorizations (QR, Cholesky) needed by the eigensolvers and the FALKON
// baseline.
//
// The matrix products split their output rows across GOMAXPROCS
// goroutines (ParallelRows). MulTTo, the kernel-matrix GEMM that dominates
// training and serving, is also blocked: it tiles b's rows and computes
// 4x2 register blocks. Each product accumulates every output over k in
// sequential order, so results are bit-identical whatever the row split,
// the tiling or GOMAXPROCS; bit-exact checkpoint resume relies on this.
//
// The package is deliberately self-contained (standard library only) since
// the Go ecosystem offers no BLAS/GPU path for this workload; internal/device
// provides the simulated parallel-resource accounting on top of these
// routines.
package mat

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix of float64 values.
//
// The zero value is an empty 0x0 matrix. Data is stored in a single backing
// slice of length Rows*Cols; element (i,j) lives at Data[i*Cols+j]. Methods
// that return matrices allocate fresh backing storage unless documented
// otherwise (RowView aliases).
type Dense struct {
	Rows, Cols int
	Data       []float64
}

// NewDense allocates an r x c matrix of zeros. It panics if r or c is
// negative.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: NewDense with negative dimension %dx%d", r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// NewDenseData wraps the given backing slice as an r x c matrix without
// copying. It panics if len(data) != r*c.
func NewDenseData(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: NewDenseData: %d elements for %dx%d matrix", len(data), r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: data}
}

// At returns the element at row i, column j.
func (a *Dense) At(i, j int) float64 { return a.Data[i*a.Cols+j] }

// Set assigns v to the element at row i, column j.
func (a *Dense) Set(i, j int, v float64) { a.Data[i*a.Cols+j] = v }

// RowView returns row i as a slice aliasing the matrix storage. Mutations
// through the returned slice are visible in the matrix.
func (a *Dense) RowView(i int) []float64 { return a.Data[i*a.Cols : (i+1)*a.Cols] }

// Clone returns a deep copy of the matrix.
func (a *Dense) Clone() *Dense {
	out := NewDense(a.Rows, a.Cols)
	copy(out.Data, a.Data)
	return out
}

// CopyFrom copies the contents of src into a. Dimensions must match.
func (a *Dense) CopyFrom(src *Dense) {
	if a.Rows != src.Rows || a.Cols != src.Cols {
		panic(dimErr("CopyFrom", a, src))
	}
	copy(a.Data, src.Data)
}

// Fill sets every element to v.
func (a *Dense) Fill(v float64) {
	for i := range a.Data {
		a.Data[i] = v
	}
}

// Zero sets every element to 0.
func (a *Dense) Zero() {
	for i := range a.Data {
		a.Data[i] = 0
	}
}

// Eye returns the n x n identity matrix.
func Eye(n int) *Dense {
	out := NewDense(n, n)
	for i := 0; i < n; i++ {
		out.Data[i*n+i] = 1
	}
	return out
}

// T returns a newly allocated transpose of a.
func (a *Dense) T() *Dense {
	out := NewDense(a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		row := a.RowView(i)
		for j, v := range row {
			out.Data[j*a.Rows+i] = v
		}
	}
	return out
}

// SliceRows returns a new matrix holding rows [from, to) of a (copied).
func (a *Dense) SliceRows(from, to int) *Dense {
	if from < 0 || to > a.Rows || from > to {
		panic(fmt.Sprintf("mat: SliceRows [%d,%d) out of range for %d rows", from, to, a.Rows))
	}
	out := NewDense(to-from, a.Cols)
	copy(out.Data, a.Data[from*a.Cols:to*a.Cols])
	return out
}

// StackRows copies the given rows (each of length cols) into one contiguous
// rows x cols matrix — the coalescing step that turns queued per-request
// feature vectors into a single GEMM operand.
func StackRows(rows [][]float64, cols int) *Dense {
	out := NewDense(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("mat: StackRows row %d has %d values, want %d", i, len(r), cols))
		}
		copy(out.RowView(i), r)
	}
	return out
}

// SelectRows gathers the given rows of a into a new len(idx) x Cols matrix.
func (a *Dense) SelectRows(idx []int) *Dense {
	out := NewDense(len(idx), a.Cols)
	a.SelectRowsInto(out, idx)
	return out
}

// SelectRowsInto gathers the given rows of a into dst (len(idx) x Cols,
// overwritten).
func (a *Dense) SelectRowsInto(dst *Dense, idx []int) {
	if dst.Rows != len(idx) || dst.Cols != a.Cols {
		panic(fmt.Sprintf("mat: SelectRowsInto %d rows into %dx%d for %d cols", len(idx), dst.Rows, dst.Cols, a.Cols))
	}
	for k, i := range idx {
		copy(dst.RowView(k), a.RowView(i))
	}
}

// SelectCols gathers the given columns of a into a new Rows x len(idx)
// matrix.
func (a *Dense) SelectCols(idx []int) *Dense {
	out := NewDense(a.Rows, len(idx))
	for i := 0; i < a.Rows; i++ {
		src := a.RowView(i)
		dst := out.RowView(i)
		for k, j := range idx {
			dst[k] = src[j]
		}
	}
	return out
}

// Col returns a copy of column j as a slice.
func (a *Dense) Col(j int) []float64 {
	out := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		out[i] = a.Data[i*a.Cols+j]
	}
	return out
}

// SetCol assigns v to column j. len(v) must equal Rows.
func (a *Dense) SetCol(j int, v []float64) {
	if len(v) != a.Rows {
		panic(fmt.Sprintf("mat: SetCol: %d values for %d rows", len(v), a.Rows))
	}
	for i := 0; i < a.Rows; i++ {
		a.Data[i*a.Cols+j] = v[i]
	}
}

// SetRow assigns v to row i. len(v) must equal Cols.
func (a *Dense) SetRow(i int, v []float64) {
	if len(v) != a.Cols {
		panic(fmt.Sprintf("mat: SetRow: %d values for %d cols", len(v), a.Cols))
	}
	copy(a.RowView(i), v)
}

// MaxAbs returns the largest absolute element value, or 0 for an empty
// matrix.
func (a *Dense) MaxAbs() float64 {
	max := 0.0
	for _, v := range a.Data {
		if av := math.Abs(v); av > max {
			max = av
		}
	}
	return max
}

// FrobeniusNorm returns the Frobenius norm sqrt(sum a_ij^2).
func (a *Dense) FrobeniusNorm() float64 {
	// Scaled accumulation to avoid overflow on large magnitudes.
	scale := a.MaxAbs()
	if scale == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range a.Data {
		r := v / scale
		sum += r * r
	}
	return scale * math.Sqrt(sum)
}

// Trace returns the sum of diagonal elements; panics if a is not square.
func (a *Dense) Trace() float64 {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("mat: Trace of non-square %dx%d matrix", a.Rows, a.Cols))
	}
	t := 0.0
	for i := 0; i < a.Rows; i++ {
		t += a.Data[i*a.Cols+i]
	}
	return t
}

// Equal reports whether a and b have identical dimensions and every element
// differs by at most tol in absolute value.
func Equal(a, b *Dense, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Abs(v-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders small matrices for debugging; large matrices are
// summarized by shape.
func (a *Dense) String() string {
	if a.Rows*a.Cols > 64 {
		return fmt.Sprintf("Dense(%dx%d)", a.Rows, a.Cols)
	}
	s := fmt.Sprintf("Dense(%dx%d)[", a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < a.Cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", a.At(i, j))
		}
	}
	return s + "]"
}

func dimErr(op string, a, b *Dense) string {
	return fmt.Sprintf("mat: %s dimension mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols)
}
