package metrics

import (
	"math"
	"testing"

	"eigenpro/internal/mat"
)

func TestMSE(t *testing.T) {
	pred := mat.NewDenseData(2, 2, []float64{1, 0, 0, 1})
	target := mat.NewDenseData(2, 2, []float64{0, 0, 0, 1})
	if got := MSE(pred, target); math.Abs(got-0.25) > 1e-15 {
		t.Fatalf("MSE = %v, want 0.25", got)
	}
	if got := MSE(pred, pred); got != 0 {
		t.Fatalf("MSE(x,x) = %v, want 0", got)
	}
}

func TestMSEEmpty(t *testing.T) {
	if got := MSE(mat.NewDense(0, 3), mat.NewDense(0, 3)); got != 0 {
		t.Fatalf("MSE empty = %v", got)
	}
}

func TestMSEShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MSE(mat.NewDense(1, 2), mat.NewDense(2, 1))
}

func TestClassificationError(t *testing.T) {
	pred := mat.NewDenseData(3, 2, []float64{
		0.9, 0.1, // -> 0
		0.2, 0.8, // -> 1
		0.6, 0.4, // -> 0
	})
	if got := ClassificationError(pred, []int{0, 1, 1}); math.Abs(got-1.0/3) > 1e-15 {
		t.Fatalf("error = %v, want 1/3", got)
	}
}

func TestClassificationErrorEmpty(t *testing.T) {
	if got := ClassificationError(mat.NewDense(0, 2), nil); got != 0 {
		t.Fatalf("empty error = %v", got)
	}
}
