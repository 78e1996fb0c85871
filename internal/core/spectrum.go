package core

import (
	"fmt"
	"math/rand"

	"eigenpro/internal/eigen"
	"eigenpro/internal/kernel"
	"eigenpro/internal/mat"
)

// Spectrum holds the Nyström estimate of the top of a kernel operator's
// spectrum built from an s-point subsample of the training data (paper §4).
//
// Eigenvalues of the normalized n x n kernel matrix K (K_ij = k(x_i,x_j)/n)
// are estimated as λ_i ≈ σ_i/s where σ_i are eigenvalues of the *unscaled*
// s x s subsample kernel matrix K_s. Eigenfunctions extend by the Nyström
// formula e_i(x) = (√s/σ_i) · v_iᵀ φ(x) with φ(x) = (k(x_r1,x), ...,
// k(x_rs,x))ᵀ, normalized so that (1/s) Σ_j e_i(x_rj)² = 1, which makes the
// Mercer expansion Σ_i λ_i e_i(x) e_i(z) ≈ k(x,z) hold on the subsample.
type Spectrum struct {
	// Kern is the kernel the spectrum was estimated for.
	Kern kernel.Func
	// SubIdx are the indices of the s subsample points in the training set.
	SubIdx []int
	// Xsub holds the subsample rows (s x d); these are the centers of the
	// preconditioner's fixed coordinate block.
	Xsub *mat.Dense
	// Sigma are the top eigenvalues of the unscaled s x s subsample kernel
	// matrix, descending.
	Sigma []float64
	// V stores the corresponding orthonormal eigenvectors as columns
	// (s x qmax).
	V *mat.Dense
	// Beta is β(K) = max_i k(x_i, x_i); 1 for the normalized radial
	// kernels in internal/kernel.
	Beta float64
}

// S returns the subsample size.
func (sp *Spectrum) S() int { return len(sp.SubIdx) }

// QMax returns the number of eigenpairs available.
func (sp *Spectrum) QMax() int { return len(sp.Sigma) }

// Lambda returns the estimate of λ_i(K) (1-indexed by paper convention;
// Lambda(1) is the top eigenvalue of the normalized kernel matrix).
func (sp *Spectrum) Lambda(i int) float64 {
	if i < 1 || i > len(sp.Sigma) {
		panic(fmt.Sprintf("core: Lambda(%d) with %d eigenvalues", i, len(sp.Sigma)))
	}
	return sp.Sigma[i-1] / float64(sp.S())
}

// SubsampleSize returns the paper's default fixed-coordinate-block size
// (§5: s = 2·10³ for n ≤ 10⁵, s = 1.2·10⁴ for larger n), clamped to n.
func SubsampleSize(n int) int {
	s := 2000
	if n > 100000 {
		s = 12000
	}
	if s > n {
		s = n
	}
	return s
}

// EstimateSpectrum draws s points uniformly without replacement, forms
// their kernel matrix, and extracts the top qmax eigenpairs. For subsample
// sizes up to a few hundred the full QL solver is used; larger subsamples
// use randomized block subspace iteration, which exploits the rapid
// eigendecay of kernel spectra.
func EstimateSpectrum(k kernel.Func, x *mat.Dense, s, qmax int, seed int64) (*Spectrum, error) {
	n := x.Rows
	if s < 2 || s > n {
		return nil, fmt.Errorf("core: subsample size %d out of [2,%d]", s, n)
	}
	if qmax < 1 || qmax >= s {
		return nil, fmt.Errorf("core: qmax %d out of [1,%d)", qmax, s)
	}
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(n)[:s]
	xsub := x.SelectRows(idx)
	ks := kernel.Gram(k, xsub)

	var sys *eigen.System
	var err error
	if s <= 400 {
		sys, err = eigen.Sym(ks)
		if err == nil {
			sys = sys.TopQ(qmax)
		}
	} else {
		sys, err = eigen.TopQSym(ks, qmax, eigen.TopQOptions{Iters: 12, Oversample: 20, Seed: seed + 1})
	}
	if err != nil {
		return nil, fmt.Errorf("core: subsample eigendecomposition: %w", err)
	}
	// Clamp tiny negative roundoff eigenvalues of the PSD matrix.
	for i, v := range sys.Values {
		if v < 0 {
			sys.Values[i] = 0
		}
	}
	return &Spectrum{
		Kern:   k,
		SubIdx: idx,
		Xsub:   xsub,
		Sigma:  sys.Values,
		V:      sys.Vectors,
		Beta:   kernel.Beta(k, x),
	}, nil
}

// EigenfunctionValues evaluates the first q Nyström-extended eigenfunctions
// at the rows of x, returning an x.Rows x q matrix with entries
// e_i(x_j) = (√s/σ_i) v_iᵀ φ(x_j). Eigenpairs with σ_i = 0 yield zeros.
func (sp *Spectrum) EigenfunctionValues(x *mat.Dense, q int) *mat.Dense {
	if q < 0 || q > sp.QMax() {
		panic(fmt.Sprintf("core: EigenfunctionValues q=%d out of [0,%d]", q, sp.QMax()))
	}
	phi := kernel.Matrix(sp.Kern, x, sp.Xsub) // n x s
	// e[j,i] = φ(x_j)ᵀ v_i, through the blocked MulTTo with v_1..v_q as rows.
	e := mat.MulT(phi, sp.V.T().SliceRows(0, q))
	sqrtS := sqrtFloat(float64(sp.S()))
	scale := make([]float64, q)
	for j := range scale {
		if sp.Sigma[j] > 0 {
			scale[j] = sqrtS / sp.Sigma[j]
		}
	}
	for i := 0; i < e.Rows; i++ {
		row := e.RowView(i)
		for j, sc := range scale {
			row[j] *= sc
		}
	}
	return e
}
