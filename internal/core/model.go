package core

import (
	"fmt"

	"eigenpro/internal/kernel"
	"eigenpro/internal/mat"
)

// Model is a trained kernel machine f(x) = Σ_i α_i k(x_i, x) with one
// coefficient row per training sample and one coefficient column per output
// dimension.
type Model struct {
	// Kern is the kernel used at training time. Prediction always uses the
	// original kernel: the EigenPro preconditioner changes the optimization
	// path, not the predictor (paper §1, "mathematically equivalent
	// prediction function").
	Kern kernel.Func
	// X holds the training samples / kernel centers (n x d).
	X *mat.Dense
	// Alpha holds the model coefficients (n x l).
	Alpha *mat.Dense
}

// NewModel returns a zero-initialized model over the given centers.
func NewModel(k kernel.Func, x *mat.Dense, labels int) *Model {
	return &Model{Kern: k, X: x, Alpha: mat.NewDense(x.Rows, labels)}
}

// Predict evaluates the model on the rows of xq, returning an
// xq.Rows x l matrix. Large query sets are processed in row blocks to bound
// the size of the intermediate kernel matrix.
func (m *Model) Predict(xq *mat.Dense) *mat.Dense {
	return m.PredictBatch(xq, 0)
}

// defaultPredictChunk bounds the rows of one blocked kernel-GEMM evaluation
// so the intermediate chunk x n kernel matrix stays cache- and
// memory-friendly.
const defaultPredictChunk = 2048

// PredictBatch evaluates the model on the rows of xq in row chunks of the
// given size (<= 0 selects the default). Each chunk is one blocked
// kernel-GEMM evaluation: a chunk x n kernel matrix followed by a chunk x l
// coefficient product. The kernel and GEMM primitives already spread each
// chunk over every core, so chunks run one after another through one
// kernel-matrix buffer and peak memory stays at chunk·n floats. This is the
// serving fast path; Predict delegates to it.
func (m *Model) PredictBatch(xq *mat.Dense, chunk int) *mat.Dense {
	if xq.Cols != m.X.Cols {
		panic(fmt.Sprintf("core: Predict on %d features, model has %d", xq.Cols, m.X.Cols))
	}
	if chunk <= 0 {
		chunk = defaultPredictChunk
	}
	out := mat.NewDense(xq.Rows, m.Alpha.Cols)
	if xq.Rows == 0 {
		return out
	}
	kb := mat.NewDense(min(xq.Rows, chunk), m.X.Rows)
	if xq.Rows <= chunk {
		// A serving batch is one chunk: no row views, so it allocates only
		// kb and out.
		m.predictChunkInto(out, kb, xq)
		return out
	}
	for lo := 0; lo < xq.Rows; lo += chunk {
		hi := min(lo+chunk, xq.Rows)
		m.predictChunkInto(
			mat.NewDenseData(hi-lo, out.Cols, out.Data[lo*out.Cols:hi*out.Cols]),
			mat.NewDenseData(hi-lo, kb.Cols, kb.Data[:(hi-lo)*kb.Cols]),
			mat.NewDenseData(hi-lo, xq.Cols, xq.Data[lo*xq.Cols:hi*xq.Cols]))
	}
	return out
}

// predictChunkInto computes dst = K(block, X) · Alpha for one row block,
// building the kernel matrix in kb (block.Rows x n, overwritten).
func (m *Model) predictChunkInto(dst, kb, block *mat.Dense) {
	kernel.MatrixInto(kb, m.Kern, block, m.X)
	mat.MulTo(dst, kb, m.Alpha)
}

// PredictLabels returns the argmax class index of each prediction row.
func (m *Model) PredictLabels(xq *mat.Dense) []int {
	pred := m.Predict(xq)
	out := make([]int, pred.Rows)
	for i := range out {
		out[i] = mat.ArgMaxRow(pred.RowView(i))
	}
	return out
}
