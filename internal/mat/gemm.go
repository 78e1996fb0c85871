package mat

import (
	"runtime"
	"sync"
)

// gemmMinParallelWork is the number of multiply-adds below which matrix
// products run single-threaded; goroutine fan-out costs more than it saves
// on tiny operands.
const gemmMinParallelWork = 1 << 16

// ParallelRows splits rows [0,n) into one contiguous chunk per GOMAXPROCS
// worker and runs fn on each chunk concurrently, returning once every chunk
// is done. fn receives the half-open row range [lo,hi). When
// n*minWorkPerRow is below the fan-out threshold, or GOMAXPROCS is 1, fn
// runs once on [0,n) on the calling goroutine. GOMAXPROCS is read on every
// call, so a later runtime.GOMAXPROCS(n) takes effect.
func ParallelRows(n int, minWorkPerRow int, fn func(lo, hi int)) {
	w := min(runtime.GOMAXPROCS(0), n)
	if w <= 1 || n*minWorkPerRow < gemmMinParallelWork {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + w - 1) / w
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Mul returns the matrix product a*b. It panics if a.Cols != b.Rows.
// Work is split across GOMAXPROCS goroutines by row blocks with an ikj
// loop order for cache-friendly access to b.
func Mul(a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic(dimErr("Mul", a, b))
	}
	out := NewDense(a.Rows, b.Cols)
	MulTo(out, a, b)
	return out
}

// MulTo computes dst = a*b into preallocated dst (overwritten). dst must be
// a.Rows x b.Cols and must not alias a or b.
func MulTo(dst, a, b *Dense) {
	if a.Cols != b.Rows {
		panic(dimErr("MulTo", a, b))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(dimErr("MulTo dst", dst, b))
	}
	n, k, m := a.Rows, a.Cols, b.Cols
	ParallelRows(n, k*m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.RowView(i)
			drow := dst.RowView(i)
			for j := range drow {
				drow[j] = 0
			}
			for p := 0; p < k; p++ {
				av := arow[p]
				if av == 0 {
					continue
				}
				brow := b.Data[p*m : (p+1)*m]
				for j, bv := range brow {
					drow[j] += float64(av * bv)
				}
			}
		}
	})
}

// MulT returns a * bᵀ without materializing the transpose; b is accessed by
// rows, which is the cache-friendly layout for kernel Gram computations
// where both operands store one sample per row.
func MulT(a, b *Dense) *Dense {
	out := NewDense(a.Rows, b.Rows)
	MulTTo(out, a, b)
	return out
}

// MulTTo computes dst = a * bᵀ into preallocated dst (overwritten). dst
// must be a.Rows x b.Rows and must not alias a or b.
//
// Rows of a are split across GOMAXPROCS workers. Each worker walks b in
// tiles of mulTTTile rows, so a tile stays in cache while the worker's rows
// of a stream past it, and computes 4x2 output blocks with eight scalar
// accumulators. Blocking changes only which outputs are computed together:
// every output is still s = 0; s += a[i,p]*b[j,p] for p = 0..k-1 in order,
// so the result is bit-identical to the naive dot-product loop whatever
// the tiling or GOMAXPROCS.
func MulTTo(dst, a, b *Dense) {
	if a.Cols != b.Cols {
		panic(dimErr("MulTTo", a, b))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(dimErr("MulTTo dst", dst, b))
	}
	ParallelRows(a.Rows, a.Cols*b.Rows, func(lo, hi int) {
		mulTTRows(dst, a, b, lo, hi, mulTTTile)
	})
}

// mulTTTile is the number of rows of b one MulTTo tile holds: 64 rows at
// the trainer's d=784 are 400 KB, which fits a per-core L2 cache.
const mulTTTile = 64

// mulTTRows computes rows [lo,hi) of dst = a * bᵀ, walking b in tiles of
// tile rows.
func mulTTRows(dst, a, b *Dense, lo, hi, tile int) {
	k, m := a.Cols, b.Rows
	for j0 := 0; j0 < m; j0 += tile {
		j1 := min(j0+tile, m)
		i := lo
		for ; i+4 <= hi; i += 4 {
			a0 := a.Data[i*k : (i+1)*k]
			a1 := a.Data[(i+1)*k : (i+2)*k]
			a2 := a.Data[(i+2)*k : (i+3)*k]
			a3 := a.Data[(i+3)*k : (i+4)*k]
			d0 := dst.Data[i*m : (i+1)*m]
			d1 := dst.Data[(i+1)*m : (i+2)*m]
			d2 := dst.Data[(i+2)*m : (i+3)*m]
			d3 := dst.Data[(i+3)*m : (i+4)*m]
			j := j0
			for ; j+2 <= j1; j += 2 {
				b0 := b.Data[j*k : (j+1)*k]
				b1 := b.Data[(j+1)*k : (j+2)*k]
				var s00, s01, s10, s11, s20, s21, s30, s31 float64
				for p, av0 := range a0 {
					av1, av2, av3 := a1[p], a2[p], a3[p]
					bv0, bv1 := b0[p], b1[p]
					s00 += float64(av0 * bv0)
					s01 += float64(av0 * bv1)
					s10 += float64(av1 * bv0)
					s11 += float64(av1 * bv1)
					s20 += float64(av2 * bv0)
					s21 += float64(av2 * bv1)
					s30 += float64(av3 * bv0)
					s31 += float64(av3 * bv1)
				}
				d0[j], d0[j+1] = s00, s01
				d1[j], d1[j+1] = s10, s11
				d2[j], d2[j+1] = s20, s21
				d3[j], d3[j+1] = s30, s31
			}
			for ; j < j1; j++ {
				brow := b.Data[j*k : (j+1)*k]
				d0[j] = Dot(a0, brow)
				d1[j] = Dot(a1, brow)
				d2[j] = Dot(a2, brow)
				d3[j] = Dot(a3, brow)
			}
		}
		for ; i < hi; i++ {
			arow := a.Data[i*k : (i+1)*k]
			drow := dst.Data[i*m : (i+1)*m]
			for j := j0; j < j1; j++ {
				drow[j] = Dot(arow, b.Data[j*k:(j+1)*k])
			}
		}
	}
}

// TMul returns aᵀ * b without materializing the transpose.
func TMul(a, b *Dense) *Dense {
	if a.Rows != b.Rows {
		panic(dimErr("TMul", a, b))
	}
	k, n, m := a.Rows, a.Cols, b.Cols
	out := NewDense(n, m)
	// Accumulate independently per output-row block to stay race-free:
	// out[i,:] = sum_p a[p,i] * b[p,:].
	ParallelRows(n, k*m, func(lo, hi int) {
		for p := 0; p < k; p++ {
			arow := a.RowView(p)
			brow := b.RowView(p)
			for i := lo; i < hi; i++ {
				av := arow[i]
				if av == 0 {
					continue
				}
				drow := out.RowView(i)
				for j, bv := range brow {
					drow[j] += float64(av * bv)
				}
			}
		}
	})
	return out
}

// MulVec returns the matrix-vector product a*x as a new slice.
func MulVec(a *Dense, x []float64) []float64 {
	if a.Cols != len(x) {
		panic(dimErr("MulVec", a, &Dense{Rows: len(x), Cols: 1}))
	}
	out := make([]float64, a.Rows)
	ParallelRows(a.Rows, a.Cols, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = Dot(a.RowView(i), x)
		}
	})
	return out
}

// TMulVec returns aᵀ*x as a new slice (length a.Cols).
func TMulVec(a *Dense, x []float64) []float64 {
	if a.Rows != len(x) {
		panic(dimErr("TMulVec", a, &Dense{Rows: len(x), Cols: 1}))
	}
	out := make([]float64, a.Cols)
	for i := 0; i < a.Rows; i++ {
		Axpy(x[i], a.RowView(i), out)
	}
	return out
}

// MulNaive is a straightforward triple-loop reference product used by tests
// to validate the parallel implementations.
func MulNaive(a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic(dimErr("MulNaive", a, b))
	}
	out := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for p := 0; p < a.Cols; p++ {
				s += float64(a.At(i, p) * b.At(p, j))
			}
			out.Set(i, j, s)
		}
	}
	return out
}
