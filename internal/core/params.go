package core

import (
	"fmt"
	"math"

	"eigenpro/internal/device"
	"eigenpro/internal/mat"
)

func sqrtFloat(x float64) float64 { return math.Sqrt(x) }

// MStar returns m*(k) = β(K)/λ₁(K), the critical batch size of the original
// kernel (paper §2): convergence per iteration improves linearly with batch
// size up to m*, then saturates.
func MStar(sp *Spectrum) float64 {
	l1 := sp.Lambda(1)
	if l1 <= 0 {
		return math.Inf(1)
	}
	return sp.Beta / l1
}

// BetaPrecond estimates β(K_Pq) = max_i k_Pq(x_i, x_i) on the subsample
// (paper Step 2):
//
//	k_Pq(x,x) = k(x,x) − Σ_{j≤q} (λ_j − λ_q) e_j(x)².
//
// At subsample points e_j(x_ri) = √s · V[i,j], so the sum telescopes to
// Σ_{j≤q} (σ_j − σ_q) V[i,j]².
func BetaPrecond(sp *Spectrum, q int) float64 {
	if q < 0 || q > sp.QMax() {
		panic(fmt.Sprintf("core: BetaPrecond q=%d out of [0,%d]", q, sp.QMax()))
	}
	if q == 0 {
		return sp.Beta
	}
	s := sp.S()
	sigQ := sp.Sigma[q-1]
	best := math.Inf(-1)
	for i := 0; i < s; i++ {
		drop := 0.0
		for j := 0; j < q; j++ {
			v := sp.V.At(i, j)
			drop += float64((sp.Sigma[j] - sigQ) * v * v)
		}
		if d := sp.Beta - drop; d > best {
			best = d
		}
	}
	if best < 0 {
		best = 0
	}
	return best
}

// BetaPrecondAt estimates β(K_Pq) from the preconditioned-kernel diagonal
// at the rows of x:
//
//	k_Pq(x,x) = k(x,x) − Σ_{j≤q} (λ_j − λ_q) e_j(x)²
//
// using Nyström-extended eigenfunctions. Training uses the maximum of this
// estimate and the subsample-telescoped BetaPrecond: probing extra points
// guards against underestimating β (and hence overestimating the safe step
// size) when the subsample misses high-leverage points.
func BetaPrecondAt(sp *Spectrum, q int, x *mat.Dense) float64 {
	if q < 0 || q > sp.QMax() {
		panic(fmt.Sprintf("core: BetaPrecondAt q=%d out of [0,%d]", q, sp.QMax()))
	}
	if q == 0 || x.Rows == 0 {
		return sp.Beta
	}
	e := sp.EigenfunctionValues(x, q)
	lamQ := sp.Lambda(q)
	best := math.Inf(-1)
	for i := 0; i < x.Rows; i++ {
		diag := sp.Kern.Eval(x.RowView(i), x.RowView(i))
		row := e.RowView(i)
		for j := 0; j < q; j++ {
			diag -= float64((sp.Lambda(j+1) - lamQ) * row[j] * row[j])
		}
		if diag > best {
			best = diag
		}
	}
	if best < 0 {
		best = 0
	}
	return best
}

// MStarPrecond returns m*(k_Pq) = β(K_Pq)/λ_q(K), the critical batch size
// after flattening the top-q spectrum; P_q sets λ₁(K_Pq) = λ_q(K).
// q = 0 returns MStar.
func MStarPrecond(sp *Spectrum, q int) float64 {
	if q == 0 {
		return MStar(sp)
	}
	lq := sp.Lambda(q)
	if lq <= 0 {
		return math.Inf(1)
	}
	return BetaPrecond(sp, q) / lq
}

// ChooseQ returns q = max{i : m*(k_Pi) ≤ mMax} (paper Eq. 7), i.e. the
// deepest spectral flattening whose critical batch size does not exceed the
// device's maximum useful batch. Returns 0 when even q=1 overshoots
// (m*(k_P1) > mMax), meaning the original kernel already saturates the
// device.
func ChooseQ(sp *Spectrum, mMax int) int {
	q := 0
	for i := 1; i <= sp.QMax(); i++ {
		if sp.Lambda(i) <= 0 {
			break
		}
		if MStarPrecond(sp, i) <= float64(mMax) {
			q = i
		} else {
			break
		}
	}
	return q
}

// AdjustQ implements the paper's Appendix B heuristic of running with a
// larger q than Eq. 7 strictly requires ("Increasing q appears to lead to
// faster convergence"): it extends q while the spectrum keeps decaying
// meaningfully (σ_i > relTol·σ_1) and stays within a fraction of the
// subsample size, and never decreases q.
func AdjustQ(sp *Spectrum, q int) int {
	const relTol = 1e-5
	limit := sp.S() / 8
	if limit > sp.QMax() {
		limit = sp.QMax()
	}
	adj := q
	for i := q + 1; i <= limit; i++ {
		if sp.Sigma[i-1] <= relTol*sp.Sigma[0] {
			break
		}
		adj = i
	}
	return adj
}

// StepSize returns the analytic step size for mini-batch size m against a
// kernel whose top (post-preconditioning) eigenvalue is lambdaTop and whose
// β is beta:
//
//	η(m) = m / (2·(β + (m−1)·λ_top))
//
// This is the optimal step size of Ma et al. 2017 (Theorem 4) divided by
// the factor 2 carried by the paper's gradient convention (the update uses
// 2/m · Σ ...). At m = m* ≈ β/λ_top it reduces to ≈ m/(2β), matching the
// paper's Table 4 where η ≈ m/2 for β ≈ 1. For m ≫ m* it saturates at
// 1/(2·λ_top) — the step size cap that makes oversized batches useless for
// the original kernel.
func StepSize(m int, beta, lambdaTop float64) float64 {
	if m < 1 {
		panic(fmt.Sprintf("core: StepSize m=%d", m))
	}
	den := 2 * (beta + float64(float64(m-1)*lambdaTop))
	if den <= 0 {
		panic(fmt.Sprintf("core: StepSize with beta=%v lambdaTop=%v", beta, lambdaTop))
	}
	return float64(m) / den
}

// Params bundles every analytically selected quantity for one training
// configuration; it is the row type of the paper's Table 4.
type Params struct {
	// N, Dim, Labels describe the workload.
	N, Dim, Labels int
	// S is the fixed coordinate block (subsample) size.
	S int
	// MStarOriginal is m*(k) for the unmodified kernel.
	MStarOriginal float64
	// MC, MS, MMax are the device batch limits m_C, m_S, m_max.
	MC, MS, MMax int
	// Q is Eq. 7's choice; QAdjusted the Appendix B heuristic actually used.
	Q, QAdjusted int
	// MStarAdapted is m*(k_G) for the adaptive kernel at QAdjusted.
	MStarAdapted float64
	// BetaOriginal, BetaAdapted are β(K) and β(K_G).
	BetaOriginal, BetaAdapted float64
	// Batch and Eta are the training batch size and step size.
	Batch int
	Eta   float64
	// Acceleration is the §3 claim's predicted speedup
	// (β/β_G)·(m_max/m*(k)).
	Acceleration float64
}

// SelectParams runs Steps 1-3 of the paper's main algorithm: compute
// m_max from the device, choose q by Eq. 7 (widened by the Appendix B
// heuristic), and derive the batch size and step size.
func SelectParams(sp *Spectrum, dev *device.Device, n, dim, labels int) Params {
	p := Params{
		N: n, Dim: dim, Labels: labels,
		S:             sp.S(),
		MStarOriginal: MStar(sp),
		MC:            dev.BatchCompute(n, dim, labels),
		MS:            dev.BatchMemory(n, dim, labels),
		BetaOriginal:  sp.Beta,
	}
	p.MMax = dev.MaxBatch(n, dim, labels)
	p.Q = ChooseQ(sp, p.MMax)
	p.QAdjusted = AdjustQ(sp, p.Q)
	p.BetaAdapted = BetaPrecond(sp, p.QAdjusted)
	p.MStarAdapted = MStarPrecond(sp, p.QAdjusted)
	p.Batch = p.MMax
	var lambdaTop float64
	if p.QAdjusted > 0 {
		lambdaTop = sp.Lambda(p.QAdjusted)
	} else {
		lambdaTop = sp.Lambda(1)
	}
	p.Eta = StepSize(p.Batch, p.BetaAdapted, lambdaTop)
	if p.MStarOriginal > 0 && !math.IsInf(p.MStarOriginal, 1) {
		p.Acceleration = (p.BetaOriginal / p.BetaAdapted) * float64(p.MMax) / p.MStarOriginal
	}
	return p
}
