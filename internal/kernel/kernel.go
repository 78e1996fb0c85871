// Package kernel provides the positive definite kernel functions used by
// the EigenPro 2.0 reproduction (Gaussian, Laplacian, Cauchy) and fast
// vectorized kernel-matrix construction built on the pairwise-distance GEMM
// identity ||x-z||² = ||x||² + ||z||² − 2⟨x,z⟩.
package kernel

import (
	"fmt"
	"math"

	"eigenpro/internal/mat"
)

// Func is a positive definite kernel k(x, z).
type Func interface {
	// Eval returns k(x, z) for two feature vectors of equal length.
	Eval(x, z []float64) float64
	// Name identifies the kernel family and bandwidth, e.g. "gaussian(σ=5)".
	Name() string
}

// Radial is implemented by shift-invariant kernels whose value depends only
// on the squared Euclidean distance between inputs. Kernel-matrix
// construction uses this for the vectorized GEMM path, and such kernels are
// normalized: OfSqDist(0) == 1, so β(K) = max_i k(x_i,x_i) = 1 (paper §2).
type Radial interface {
	Func
	// OfSqDist maps a squared distance to the kernel value.
	OfSqDist(d2 float64) float64
}

// Gaussian is the Gaussian (RBF) kernel k(x,z) = exp(−||x−z||²/(2σ²)).
type Gaussian struct {
	// Sigma is the bandwidth σ > 0.
	Sigma float64
}

// Eval implements Func.
func (g Gaussian) Eval(x, z []float64) float64 { return g.OfSqDist(mat.SqDist(x, z)) }

// OfSqDist implements Radial.
func (g Gaussian) OfSqDist(d2 float64) float64 { return math.Exp(-d2 / (2 * g.Sigma * g.Sigma)) }

// Name implements Func.
func (g Gaussian) Name() string { return fmt.Sprintf("gaussian(σ=%g)", g.Sigma) }

// Laplacian is the Laplace (exponential) kernel k(x,z) = exp(−||x−z||/σ).
// The paper (§5.5) highlights it for requiring fewer epochs, having larger
// m*, and being more robust to the bandwidth choice than the Gaussian.
type Laplacian struct {
	// Sigma is the bandwidth σ > 0.
	Sigma float64
}

// Eval implements Func.
func (l Laplacian) Eval(x, z []float64) float64 { return l.OfSqDist(mat.SqDist(x, z)) }

// OfSqDist implements Radial.
func (l Laplacian) OfSqDist(d2 float64) float64 {
	if d2 <= 0 {
		return 1
	}
	return math.Exp(-math.Sqrt(d2) / l.Sigma)
}

// Name implements Func.
func (l Laplacian) Name() string { return fmt.Sprintf("laplacian(σ=%g)", l.Sigma) }

// Cauchy is the Cauchy kernel k(x,z) = 1/(1 + ||x−z||²/σ²), a heavy-tailed
// positive definite alternative with slower eigendecay.
type Cauchy struct {
	// Sigma is the bandwidth σ > 0.
	Sigma float64
}

// Eval implements Func.
func (c Cauchy) Eval(x, z []float64) float64 { return c.OfSqDist(mat.SqDist(x, z)) }

// OfSqDist implements Radial.
func (c Cauchy) OfSqDist(d2 float64) float64 { return 1 / (1 + d2/(c.Sigma*c.Sigma)) }

// Name implements Func.
func (c Cauchy) Name() string { return fmt.Sprintf("cauchy(σ=%g)", c.Sigma) }

// ByName constructs a kernel from its family name and bandwidth — the one
// mapping shared by the CLI flags, the HTTP training endpoint, and the gob
// serialization format, so the three surfaces cannot drift apart.
func ByName(family string, sigma float64) (Func, error) {
	switch family {
	case "gaussian":
		return Gaussian{Sigma: sigma}, nil
	case "laplacian":
		return Laplacian{Sigma: sigma}, nil
	case "cauchy":
		return Cauchy{Sigma: sigma}, nil
	case "matern32":
		return Matern32{Sigma: sigma}, nil
	case "matern52":
		return Matern52{Sigma: sigma}, nil
	default:
		return nil, fmt.Errorf("kernel: unknown family %q", family)
	}
}

// Family returns the serializable (family, sigma) pair of a kernel built
// from this package — the inverse of ByName. Kernels from outside the
// package have no stable name and return an error; they can train but
// cannot be checkpointed or persisted.
func Family(k Func) (family string, sigma float64, err error) {
	switch v := k.(type) {
	case Gaussian:
		return "gaussian", v.Sigma, nil
	case Laplacian:
		return "laplacian", v.Sigma, nil
	case Cauchy:
		return "cauchy", v.Sigma, nil
	case Matern32:
		return "matern32", v.Sigma, nil
	case Matern52:
		return "matern52", v.Sigma, nil
	default:
		return "", 0, fmt.Errorf("kernel: %T has no serializable family", k)
	}
}

// PairwiseSqDist returns the a.Rows x b.Rows matrix of squared Euclidean
// distances between the rows of a and the rows of b, computed via one GEMM.
// Small negative values from cancellation are clamped to zero.
func PairwiseSqDist(a, b *mat.Dense) *mat.Dense {
	d := mat.NewDense(a.Rows, b.Rows)
	pairwiseSqDistInto(d, a, b)
	return d
}

// Matrix returns the a.Rows x b.Rows kernel matrix [k(a_i, b_j)]. Radial
// kernels use the vectorized pairwise-distance path; other kernels fall
// back to elementwise evaluation.
func Matrix(k Func, a, b *mat.Dense) *mat.Dense {
	out := mat.NewDense(a.Rows, b.Rows)
	MatrixInto(out, k, a, b)
	return out
}

// MatrixInto computes the kernel matrix into preallocated dst
// (a.Rows x b.Rows, overwritten). Training loops use it to avoid
// reallocating the m x n batch kernel matrix every iteration.
func MatrixInto(dst *mat.Dense, k Func, a, b *mat.Dense) {
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("kernel: MatrixInto dst %dx%d for %dx%d result",
			dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	if r, ok := k.(Radial); ok {
		pairwiseSqDistInto(dst, a, b)
		mat.ApplyInPlace(dst, r.OfSqDist)
		return
	}
	for i := 0; i < a.Rows; i++ {
		xi := a.RowView(i)
		row := dst.RowView(i)
		for j := 0; j < b.Rows; j++ {
			row[j] = k.Eval(xi, b.RowView(j))
		}
	}
}

// pairwiseSqDistInto computes squared distances into dst (overwritten).
func pairwiseSqDistInto(dst *mat.Dense, a, b *mat.Dense) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("kernel: PairwiseSqDist feature dims %d vs %d", a.Cols, b.Cols))
	}
	an := mat.RowSumSq(a)
	bn := mat.RowSumSq(b)
	mat.MulTTo(dst, a, b) // inner products
	for i := 0; i < dst.Rows; i++ {
		row := dst.RowView(i)
		ai := an[i]
		for j := range row {
			v := ai + bn[j] - 2*row[j]
			if v < 0 {
				v = 0
			}
			row[j] = v
		}
	}
}

// Gram returns the symmetric kernel matrix of x against itself, with the
// diagonal forced to exact k(x_i, x_i) values (protects against roundoff in
// the distance computation) and symmetry enforced by averaging.
func Gram(k Func, x *mat.Dense) *mat.Dense {
	g := Matrix(k, x, x)
	for i := 0; i < g.Rows; i++ {
		g.Set(i, i, k.Eval(x.RowView(i), x.RowView(i)))
		for j := 0; j < i; j++ {
			v := 0.5 * (g.At(i, j) + g.At(j, i))
			g.Set(i, j, v)
			g.Set(j, i, v)
		}
	}
	return g
}

// Beta returns β = max_i k(x_i, x_i), the paper's normalization constant.
// For the Radial kernels in this package it is exactly 1.
func Beta(k Func, x *mat.Dense) float64 {
	if _, ok := k.(Radial); ok {
		return 1
	}
	best := math.Inf(-1)
	for i := 0; i < x.Rows; i++ {
		if v := k.Eval(x.RowView(i), x.RowView(i)); v > best {
			best = v
		}
	}
	return best
}
