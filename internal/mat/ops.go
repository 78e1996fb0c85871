package mat

import (
	"fmt"
	"math"
)

// Add returns a + b elementwise.
func Add(a, b *Dense) *Dense {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(dimErr("Add", a, b))
	}
	out := NewDense(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v + b.Data[i]
	}
	return out
}

// Sub returns a - b elementwise.
func Sub(a, b *Dense) *Dense {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(dimErr("Sub", a, b))
	}
	out := NewDense(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v - b.Data[i]
	}
	return out
}

// SubInPlace computes a -= b elementwise.
func SubInPlace(a, b *Dense) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(dimErr("SubInPlace", a, b))
	}
	for i := range a.Data {
		a.Data[i] -= b.Data[i]
	}
}

// AddInPlace computes a += b elementwise.
func AddInPlace(a, b *Dense) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(dimErr("AddInPlace", a, b))
	}
	for i := range a.Data {
		a.Data[i] += b.Data[i]
	}
}

// Scale returns s * a.
func Scale(s float64, a *Dense) *Dense {
	out := NewDense(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = s * v
	}
	return out
}

// ScaleInPlace multiplies every element of a by s.
func ScaleInPlace(a *Dense, s float64) {
	for i := range a.Data {
		a.Data[i] *= s
	}
}

// AddScaledInPlace computes a += s*b elementwise (axpy).
func AddScaledInPlace(a *Dense, s float64, b *Dense) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(dimErr("AddScaledInPlace", a, b))
	}
	for i := range a.Data {
		a.Data[i] += float64(s * b.Data[i])
	}
}

// Hadamard returns the elementwise product a .* b.
func Hadamard(a, b *Dense) *Dense {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(dimErr("Hadamard", a, b))
	}
	out := NewDense(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v * b.Data[i]
	}
	return out
}

// Apply returns f applied to every element of a.
func Apply(a *Dense, f func(float64) float64) *Dense {
	out := NewDense(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = f(v)
	}
	return out
}

// ApplyInPlace replaces every element of a with f(element).
func ApplyInPlace(a *Dense, f func(float64) float64) {
	for i, v := range a.Data {
		a.Data[i] = f(v)
	}
}

// Dot returns the inner product of equal-length vectors x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(x), len(y)))
	}
	s := 0.0
	for i, v := range x {
		s += float64(v * y[i])
	}
	return s
}

// Axpy computes y += a*x for equal-length vectors.
func Axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += float64(a * v)
	}
}

// Norm2 returns the Euclidean norm of x with overflow-safe scaling.
func Norm2(x []float64) float64 {
	scale := 0.0
	for _, v := range x {
		if av := math.Abs(v); av > scale {
			scale = av
		}
	}
	if scale == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range x {
		r := v / scale
		sum += float64(r * r)
	}
	return scale * math.Sqrt(sum)
}

// SqDist returns the squared Euclidean distance between x and z.
func SqDist(x, z []float64) float64 {
	if len(x) != len(z) {
		panic(fmt.Sprintf("mat: SqDist length mismatch %d vs %d", len(x), len(z)))
	}
	s := 0.0
	for i, v := range x {
		d := v - z[i]
		s += float64(d * d)
	}
	return s
}

// RowSumSq returns per-row squared Euclidean norms of a.
func RowSumSq(a *Dense) []float64 {
	out := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		s := 0.0
		for _, v := range a.RowView(i) {
			s += float64(v * v)
		}
		out[i] = s
	}
	return out
}

// ColMeans returns the per-column mean of a.
func ColMeans(a *Dense) []float64 {
	out := make([]float64, a.Cols)
	if a.Rows == 0 {
		return out
	}
	for i := 0; i < a.Rows; i++ {
		for j, v := range a.RowView(i) {
			out[j] += v
		}
	}
	inv := 1.0 / float64(a.Rows)
	for j := range out {
		out[j] *= inv
	}
	return out
}

// ColStds returns the per-column standard deviation of a around the given
// means (population convention, divisor n).
func ColStds(a *Dense, means []float64) []float64 {
	if len(means) != a.Cols {
		panic(fmt.Sprintf("mat: ColStds: %d means for %d cols", len(means), a.Cols))
	}
	out := make([]float64, a.Cols)
	if a.Rows == 0 {
		return out
	}
	for i := 0; i < a.Rows; i++ {
		for j, v := range a.RowView(i) {
			d := v - means[j]
			out[j] += float64(d * d)
		}
	}
	inv := 1.0 / float64(a.Rows)
	for j := range out {
		out[j] = math.Sqrt(out[j] * inv)
	}
	return out
}

// ArgMaxRow returns the index of the maximum element of a row vector.
// Ties resolve to the lowest index.
func ArgMaxRow(row []float64) int {
	best, bi := math.Inf(-1), 0
	for j, v := range row {
		if v > best {
			best, bi = v, j
		}
	}
	return bi
}
