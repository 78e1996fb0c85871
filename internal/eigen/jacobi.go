package eigen

import (
	"fmt"
	"math"
	"sort"

	"eigenpro/internal/mat"
)

// Jacobi computes the full eigendecomposition of a symmetric matrix by the
// cyclic Jacobi rotation method. It is slower than Sym but algorithmically
// independent, so the test suite uses it to cross-validate the QL solver.
// The result is sorted by descending eigenvalue. The input is not modified.
func Jacobi(a *mat.Dense) (*System, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("eigen: Jacobi of non-square %dx%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	w := a.Clone()
	// Symmetrize from the lower triangle for robustness.
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			w.Set(j, i, w.At(i, j))
		}
	}
	v := mat.Eye(n)
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += float64(w.At(i, j) * w.At(i, j))
			}
		}
		if off < 1e-28*(1+w.FrobeniusNorm()) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := w.At(p, p), w.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := 1.0 / (math.Abs(theta) + math.Sqrt(float64(theta*theta)+1))
				if theta < 0 {
					t = -t
				}
				c := 1.0 / math.Sqrt(float64(t*t)+1)
				s := t * c
				// Apply rotation G(p,q,θ) on both sides: W ← GᵀWG.
				for k := 0; k < n; k++ {
					wkp, wkq := w.At(k, p), w.At(k, q)
					w.Set(k, p, float64(c*wkp)-float64(s*wkq))
					w.Set(k, q, float64(s*wkp)+float64(c*wkq))
				}
				for k := 0; k < n; k++ {
					wpk, wqk := w.At(p, k), w.At(q, k)
					w.Set(p, k, float64(c*wpk)-float64(s*wqk))
					w.Set(q, k, float64(s*wpk)+float64(c*wqk))
				}
				for k := 0; k < n; k++ {
					vkp, vkq := v.At(k, p), v.At(k, q)
					v.Set(k, p, float64(c*vkp)-float64(s*vkq))
					v.Set(k, q, float64(s*vkp)+float64(c*vkq))
				}
			}
		}
	}
	vals := make([]float64, n)
	order := make([]int, n)
	for i := range order {
		vals[i] = w.At(i, i)
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return vals[order[i]] > vals[order[j]] })
	sorted := make([]float64, n)
	for k, idx := range order {
		sorted[k] = vals[idx]
	}
	return &System{Values: sorted, Vectors: v.SelectCols(order)}, nil
}
