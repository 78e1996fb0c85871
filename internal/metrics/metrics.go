// Package metrics provides the evaluation measures used throughout the
// EigenPro 2.0 reproduction: mean squared error on one-hot regression
// targets (the paper's training objective and stopping criterion) and
// multiclass classification error (the paper's reported test metric).
package metrics

import (
	"fmt"

	"eigenpro/internal/mat"
)

// MSE returns the mean squared error (1/(n*l)) * Σ (pred − target)²,
// averaging over both samples and output dimensions. This matches the
// paper's "train mse" stopping criterion for one-hot multi-label targets.
func MSE(pred, target *mat.Dense) float64 {
	if pred.Rows != target.Rows || pred.Cols != target.Cols {
		panic(fmt.Sprintf("metrics: MSE shape mismatch %dx%d vs %dx%d",
			pred.Rows, pred.Cols, target.Rows, target.Cols))
	}
	if pred.Rows == 0 || pred.Cols == 0 {
		return 0
	}
	sum := 0.0
	for i, v := range pred.Data {
		d := v - target.Data[i]
		sum += d * d
	}
	return sum / float64(len(pred.Data))
}

// ClassificationError returns the fraction of rows whose argmax prediction
// disagrees with the true label.
func ClassificationError(pred *mat.Dense, labels []int) float64 {
	if pred.Rows != len(labels) {
		panic(fmt.Sprintf("metrics: %d predictions for %d labels", pred.Rows, len(labels)))
	}
	if pred.Rows == 0 {
		return 0
	}
	wrong := 0
	for i := 0; i < pred.Rows; i++ {
		if mat.ArgMaxRow(pred.RowView(i)) != labels[i] {
			wrong++
		}
	}
	return float64(wrong) / float64(pred.Rows)
}
