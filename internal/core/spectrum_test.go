package core

import (
	"math"
	"testing"

	"eigenpro/internal/data"
	"eigenpro/internal/eigen"
	"eigenpro/internal/kernel"
	"eigenpro/internal/mat"
)

func testDataset(n int) *data.Dataset {
	return data.Generate(data.GenConfig{
		Name: "test", N: n, Dim: 20, Classes: 4, LatentDim: 6,
		Seed: 99,
	})
}

func TestSubsampleSizeRule(t *testing.T) {
	if got := SubsampleSize(50000); got != 2000 {
		t.Fatalf("s(5e4) = %d, want 2000", got)
	}
	if got := SubsampleSize(100000); got != 2000 {
		t.Fatalf("s(1e5) = %d, want 2000", got)
	}
	if got := SubsampleSize(200000); got != 12000 {
		t.Fatalf("s(2e5) = %d, want 12000", got)
	}
	if got := SubsampleSize(500); got != 500 {
		t.Fatalf("s(500) = %d, want 500 (clamped)", got)
	}
}

func TestEstimateSpectrumBasics(t *testing.T) {
	ds := testDataset(300)
	k := kernel.Gaussian{Sigma: 4}
	sp, err := EstimateSpectrum(k, ds.X, 120, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sp.S() != 120 || sp.QMax() != 20 {
		t.Fatalf("s=%d qmax=%d", sp.S(), sp.QMax())
	}
	if sp.Beta != 1 {
		t.Fatalf("beta = %v, want 1 for radial kernel", sp.Beta)
	}
	for i := 1; i < len(sp.Sigma); i++ {
		if sp.Sigma[i] > sp.Sigma[i-1]+1e-12 {
			t.Fatalf("sigma not descending: %v", sp.Sigma[:i+1])
		}
	}
	for _, s := range sp.Sigma {
		if s < 0 {
			t.Fatalf("negative sigma %v", s)
		}
	}
	// λ_i = σ_i/s and λ₁ must be within (0, β].
	l1 := sp.Lambda(1)
	if l1 <= 0 || l1 > sp.Beta+1e-12 {
		t.Fatalf("lambda1 = %v out of (0,1]", l1)
	}
}

func TestEstimateSpectrumMatchesFullEig(t *testing.T) {
	// With s = n the subsample matrix is the full Gram matrix: σ_i must
	// equal its eigenvalues exactly.
	ds := testDataset(80)
	k := kernel.Laplacian{Sigma: 5}
	sp, err := EstimateSpectrum(k, ds.X, 80, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := kernel.Gram(k, ds.X.SelectRows(sp.SubIdx))
	sys, err := eigen.Sym(g)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if math.Abs(sp.Sigma[i]-sys.Values[i]) > 1e-8 {
			t.Fatalf("sigma[%d] = %v, full eig %v", i, sp.Sigma[i], sys.Values[i])
		}
	}
}

func TestEstimateSpectrumLargeUsesSubspace(t *testing.T) {
	// s > 400 triggers the subspace-iteration path; verify residuals.
	ds := testDataset(600)
	k := kernel.Gaussian{Sigma: 4}
	sp, err := EstimateSpectrum(k, ds.X, 500, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := kernel.Gram(k, sp.Xsub)
	sys := &eigen.System{Values: sp.Sigma, Vectors: sp.V}
	if r := eigen.Residual(g, sys); r > 1e-5*float64(sp.S()) {
		t.Fatalf("subspace residual %v too large", r)
	}
}

func TestEstimateSpectrumErrors(t *testing.T) {
	ds := testDataset(50)
	k := kernel.Gaussian{Sigma: 2}
	if _, err := EstimateSpectrum(k, ds.X, 1, 1, 0); err == nil {
		t.Fatal("s=1 must error")
	}
	if _, err := EstimateSpectrum(k, ds.X, 60, 5, 0); err == nil {
		t.Fatal("s>n must error")
	}
	if _, err := EstimateSpectrum(k, ds.X, 20, 20, 0); err == nil {
		t.Fatal("qmax>=s must error")
	}
}

func TestEstimateSpectrumDeterministic(t *testing.T) {
	ds := testDataset(200)
	k := kernel.Gaussian{Sigma: 3}
	a, _ := EstimateSpectrum(k, ds.X, 100, 8, 7)
	b, _ := EstimateSpectrum(k, ds.X, 100, 8, 7)
	for i := range a.Sigma {
		if a.Sigma[i] != b.Sigma[i] {
			t.Fatal("spectrum not deterministic for fixed seed")
		}
	}
}

func TestEigenfunctionValuesNormalization(t *testing.T) {
	// (1/s) Σ_j e_i(x_rj)² ≈ 1: eigenfunctions are L²(subsample)-normalized.
	ds := testDataset(200)
	k := kernel.Gaussian{Sigma: 4}
	sp, err := EstimateSpectrum(k, ds.X, 150, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	e := sp.EigenfunctionValues(sp.Xsub, 6)
	for i := 0; i < 6; i++ {
		sum := 0.0
		for j := 0; j < sp.S(); j++ {
			sum += e.At(j, i) * e.At(j, i)
		}
		norm := sum / float64(sp.S())
		if math.Abs(norm-1) > 1e-6 {
			t.Fatalf("eigenfunction %d L² norm %v, want 1", i, norm)
		}
	}
}

// TestEigenfunctionValuesBitExact pins the β probe's product to the
// column-major form it replaced: Mul(φ, V_q), then each column scaled by
// √s/σ_i, bit for bit.
func TestEigenfunctionValuesBitExact(t *testing.T) {
	ds := testDataset(300)
	k := kernel.Gaussian{Sigma: 4}
	sp, err := EstimateSpectrum(k, ds.X, 150, 40, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []int{0, 1, 7, 40} {
		idx := make([]int, q)
		for i := range idx {
			idx[i] = i
		}
		want := mat.Mul(kernel.Matrix(k, ds.X, sp.Xsub), sp.V.SelectCols(idx))
		for j := 0; j < q; j++ {
			var scale float64
			if sp.Sigma[j] > 0 {
				scale = math.Sqrt(float64(sp.S())) / sp.Sigma[j]
			}
			for i := 0; i < want.Rows; i++ {
				want.Set(i, j, want.At(i, j)*scale)
			}
		}
		got := sp.EigenfunctionValues(ds.X, q)
		if got.Rows != want.Rows || got.Cols != want.Cols {
			t.Fatalf("q=%d: got %dx%d, want %dx%d", q, got.Rows, got.Cols, want.Rows, want.Cols)
		}
		for i, v := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
				t.Fatalf("q=%d: element %d = %v, want %v", q, i, got.Data[i], v)
			}
		}
	}
}

func TestEigenfunctionMercerReconstruction(t *testing.T) {
	// Σ_i λ_i e_i(x) e_i(z) with all s eigenpairs reconstructs k(x,z) on
	// the subsample.
	ds := testDataset(60)
	k := kernel.Gaussian{Sigma: 4}
	s := 40
	sp, err := EstimateSpectrum(k, ds.X, s, s-1, 5)
	if err != nil {
		t.Fatal(err)
	}
	e := sp.EigenfunctionValues(sp.Xsub, s-1)
	g := kernel.Gram(k, sp.Xsub)
	recon := mat.NewDense(s, s)
	for i := 0; i < s; i++ {
		for j := 0; j < s; j++ {
			sum := 0.0
			for p := 0; p < s-1; p++ {
				sum += sp.Lambda(p+1) * e.At(i, p) * e.At(j, p)
			}
			recon.Set(i, j, sum)
		}
	}
	// Missing only the smallest eigenpair, so tolerance is the tail size.
	tail := sp.Sigma[s-2]
	if !mat.Equal(recon, g, tail+1e-6) {
		t.Fatal("Mercer reconstruction from Nyström eigenfunctions failed")
	}
}
