package eigen

import (
	"fmt"
	"math"
	"math/rand"

	"eigenpro/internal/mat"
)

// TopQOptions configures TopQSym block subspace iteration.
type TopQOptions struct {
	// Iters is the number of power iterations; PSD kernel matrices have
	// fast eigendecay, so a handful suffices. Values < 1 default to 8.
	Iters int
	// Oversample adds extra probe directions beyond q for accuracy;
	// values < 0 default to min(10, dim-q).
	Oversample int
	// Seed makes the random probe matrix deterministic.
	Seed int64
}

// TopQSym computes the q leading eigenpairs of a symmetric positive
// semi-definite matrix by randomized block subspace (orthogonal) iteration:
// repeatedly apply A to an orthonormal block, then solve the small projected
// eigenproblem. For the rapidly decaying spectra of kernel matrices this
// costs O(n^2 (q+p) iters) instead of the O(n^3) full solve.
func TopQSym(a *mat.Dense, q int, opt TopQOptions) (*System, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("eigen: TopQSym of non-square %dx%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	if q < 0 || q > n {
		return nil, fmt.Errorf("eigen: TopQSym q=%d out of range for n=%d", q, n)
	}
	if q == 0 {
		return &System{Values: nil, Vectors: mat.NewDense(n, 0)}, nil
	}
	iters := opt.Iters
	if iters < 1 {
		iters = 8
	}
	over := opt.Oversample
	if over < 0 {
		over = 10
	}
	if q+over > n {
		over = n - q
	}
	b := q + over

	// The iteration runs on the transposed basis Qᵀ (b x n), so each basis
	// vector is one contiguous row: OrthonormalizeRows streams it, and
	// every product is a blocked MulTTo. (A Q)ᵀ = Qᵀ Aᵀ = MulTTo(Qᵀ, A)
	// reads A by rows and sums each output over k in order, so it is
	// bit-identical to the column-major Mul(A, Q).
	rng := rand.New(rand.NewSource(opt.Seed))
	qt := mat.NewDense(b, n)
	for i := 0; i < n; i++ {
		for j := 0; j < b; j++ {
			qt.Data[j*n+i] = rng.NormFloat64()
		}
	}
	mat.OrthonormalizeRows(qt)
	aqt := mat.NewDense(b, n)
	for it := 0; it < iters; it++ {
		mat.MulTTo(aqt, qt, a)
		mat.OrthonormalizeRows(aqt)
		qt, aqt = aqt, qt
	}
	// Rayleigh–Ritz: T = Qᵀ A Q, then eigendecompose the small b x b system.
	mat.MulTTo(aqt, qt, a)
	small, err := Sym(mat.MulT(qt, aqt))
	if err != nil {
		return nil, err
	}
	topVals := make([]float64, q)
	copy(topVals, small.Values[:q])
	// Ritz vectors Q W for the leading q columns W of the small system.
	w := small.Vectors.T().SliceRows(0, q)
	return &System{Values: topVals, Vectors: mat.MulT(qt.T(), w)}, nil
}

// Residual returns max_i ||A v_i - λ_i v_i||_2, a convergence diagnostic
// for an approximate eigensystem.
func Residual(a *mat.Dense, s *System) float64 {
	if len(s.Values) == 0 {
		return 0
	}
	av := mat.Mul(a, s.Vectors)
	worst := 0.0
	for j, lam := range s.Values {
		sum := 0.0
		for i := 0; i < a.Rows; i++ {
			r := av.At(i, j) - float64(lam*s.Vectors.At(i, j))
			sum += float64(r * r)
		}
		if sum > worst {
			worst = sum
		}
	}
	return math.Sqrt(worst)
}
