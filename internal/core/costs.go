package core

// Per-iteration cost formulas from the paper's Table 1. All counts are in
// scalar multiply-add operations or float64 storage slots; n is the
// training-set size, m the batch size, d the feature dimension, l the label
// dimension, s the fixed coordinate block size, and q the EigenPro
// parameter. The trainers charge these to the simulated device and the
// Table 1 benchmark checks them against instrumented op counters.

// SGDIterOps returns the operations of one plain SGD iteration:
// n·m·(d+l) — evaluating the kernel rows (n·m·d) and the predictions
// (n·m·l).
func SGDIterOps(n, m, d, l int) float64 {
	return float64(float64(n) * float64(m) * float64(d+l))
}

// PredictOps returns the operations of one blocked kernel-GEMM prediction
// of an m-row query batch against an n-center model: n·m·(d+l) — the same
// count as the kernel-row and prediction terms of an SGD iteration. The
// serving subsystem charges this to the simulated device per micro-batch.
func PredictOps(n, m, d, l int) float64 { return SGDIterOps(n, m, d, l) }

// ImprovedEigenProIterOps returns the operations of one improved EigenPro
// (Algorithm 1) iteration: SGD cost plus the s·m·q fixed-block correction.
func ImprovedEigenProIterOps(n, m, d, l, s, q int) float64 {
	return SGDIterOps(n, m, d, l) + float64(float64(s)*float64(m)*float64(q))
}

// OriginalEigenProIterOps returns the operations of one original (2017)
// EigenPro iteration: SGD cost plus the n·m·q eigenfunction evaluation
// against full-size coefficient vectors.
func OriginalEigenProIterOps(n, m, d, l, q int) float64 {
	return SGDIterOps(n, m, d, l) + float64(float64(n)*float64(m)*float64(q))
}

// SGDMemoryFloats returns the working-set size of SGD: n·(m+d+l) — training
// data (n·d), model weights (n·l), and the m·n mini-batch kernel matrix.
func SGDMemoryFloats(n, m, d, l int) int64 {
	return int64(n) * int64(m+d+l)
}

// ImprovedEigenProMemoryFloats returns Algorithm 1's working set:
// SGD plus the s·q fixed-block eigensystem.
func ImprovedEigenProMemoryFloats(n, m, d, l, s, q int) int64 {
	return SGDMemoryFloats(n, m, d, l) + int64(s)*int64(q)
}

// OriginalEigenProMemoryFloats returns the original EigenPro working set:
// SGD plus n·q full-size preconditioner vectors.
func OriginalEigenProMemoryFloats(n, m, d, l, q int) int64 {
	return SGDMemoryFloats(n, m, d, l) + int64(n)*int64(q)
}

// OverheadRatio returns (method cost − SGD cost)/SGD cost for the given
// per-iteration op counts; the paper reports this is < 1% for the improved
// iteration at production scale (n=10⁶, s=10⁴, d,m ~ 10³, q,l ~ 10²).
func OverheadRatio(methodOps, sgdOps float64) float64 {
	if sgdOps == 0 {
		return 0
	}
	return (methodOps - sgdOps) / sgdOps
}
