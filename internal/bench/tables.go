package bench

import (
	"fmt"
	"math"

	"eigenpro/internal/core"
	"eigenpro/internal/falkon"
	"eigenpro/internal/metrics"
	"eigenpro/internal/svm"
)

// Table1 regenerates the paper's Table 1: per-iteration computation and
// memory of improved EigenPro vs original EigenPro vs SGD, first with the
// analytic formulas at the paper's production scale, then with measured
// wall-clock per-iteration times at repo scale.
func Table1(scale Scale) (*Report, error) {
	rep := &Report{
		ID:     "table1",
		Title:  "per-iteration cost: improved EigenPro vs original EigenPro vs SGD",
		Header: []string{"method", "compute (ops)", "overhead", "memory (floats)", "mem overhead"},
	}
	// Paper-scale parameters (§4): n=10⁶, s=10⁴, d,m ~ 10³, q,l ~ 10².
	n, m, d, l, s, q := 1000000, 1000, 1000, 100, 10000, 100
	sgdOps := core.SGDIterOps(n, m, d, l)
	impOps := core.ImprovedEigenProIterOps(n, m, d, l, s, q)
	origOps := core.OriginalEigenProIterOps(n, m, d, l, q)
	sgdMem := core.SGDMemoryFloats(n, m, d, l)
	impMem := core.ImprovedEigenProMemoryFloats(n, m, d, l, s, q)
	origMem := core.OriginalEigenProMemoryFloats(n, m, d, l, q)
	rep.AddRow("improved EigenPro", fmt.Sprintf("%.3g", impOps), fmtPct(core.OverheadRatio(impOps, sgdOps)),
		fmt.Sprintf("%d", impMem), fmtPct(float64(impMem-sgdMem)/float64(sgdMem)))
	rep.AddRow("original EigenPro", fmt.Sprintf("%.3g", origOps), fmtPct(core.OverheadRatio(origOps, sgdOps)),
		fmt.Sprintf("%d", origMem), fmtPct(float64(origMem-sgdMem)/float64(sgdMem)))
	rep.AddRow("SGD", fmt.Sprintf("%.3g", sgdOps), "0.0%", fmt.Sprintf("%d", sgdMem), "0.0%")
	rep.AddNote("formulas at paper scale n=10⁶ s=10⁴ d=m=10³ q=l=10²; improved overhead < 1%% as claimed")

	// Measured wall-clock per-iteration overhead at repo scale.
	wls := figure2Workloads(scale)
	wl := wls[0]
	sub := scale.pick(256, 400, 800)
	batch := 64
	var perIter [3]float64
	for i, method := range []core.Method{core.MethodEigenPro2, core.MethodEigenPro1, core.MethodSGD} {
		res, err := core.Train(core.Config{
			Kernel: wl.kern, Device: experimentDevice(), Method: method,
			S: sub, QMax: 64, Batch: batch, Epochs: 3, Seed: 13,
		}, wl.ds.X, wl.ds.Y)
		if err != nil {
			return nil, fmt.Errorf("bench: table1: %w", err)
		}
		perIter[i] = float64(res.WallTime.Nanoseconds()) / float64(res.Iters)
	}
	rep.AddNote("measured wall/iter on %s (n=%d, s=%d, m=%d): improved %.2fµs (+%.1f%% vs SGD), original %.2fµs (+%.1f%%)",
		wl.name, wl.ds.N(), sub, batch,
		perIter[0]/1e3, 100*(perIter[0]-perIter[2])/perIter[2],
		perIter[1]/1e3, 100*(perIter[1]-perIter[2])/perIter[2])
	return rep, nil
}

// Table2 regenerates the paper's Table 2: classification error and
// (simulated) GPU time of EigenPro 2.0 against EigenPro 1.0 and FALKON on
// MNIST/TIMIT/ImageNet/SUSY-shaped workloads. The expected shape: similar
// errors, with EigenPro 2.0 several times faster.
func Table2(scale Scale) (*Report, error) {
	dev := experimentDevice()
	rep := &Report{
		ID:     "table2",
		Title:  "EigenPro 2.0 vs EigenPro 1.0 vs FALKON: error and resource time",
		Header: []string{"dataset", "method", "test error", "sim GPU time", "wall time", "config"},
	}
	for _, wl := range table2Workloads(scale) {
		train, test := wl.ds.Split(0.8, 17)
		n := train.N()
		sub := scale.pick(200, 400, 1000)

		// EigenPro 2.0: fully automatic parameters.
		ep2, err := core.Train(core.Config{
			Kernel: wl.kern, Device: dev, Method: core.MethodEigenPro2,
			S: sub, Epochs: wl.epochs, Seed: 29,
		}, train.X, train.Y)
		if err != nil {
			return nil, fmt.Errorf("bench: table2 %s ep2: %w", wl.name, err)
		}
		errEP2 := metrics.ClassificationError(ep2.Model.Predict(test.X), test.Labels)
		rep.AddRow(wl.name, "eigenpro2.0", fmtPct(errEP2), fmtDur(ep2.SimTime), fmtDur(ep2.WallTime),
			fmt.Sprintf("q=%d m=%d η=%.1f", ep2.Params.QAdjusted, ep2.Params.Batch, ep2.Params.Eta))

		// EigenPro 1.0: historical batch size 256, n-scaled overhead.
		batch1 := 256
		if batch1 > n {
			batch1 = n / 2
		}
		ep1, err := core.Train(core.Config{
			Kernel: wl.kern, Device: dev, Method: core.MethodEigenPro1,
			S: sub, Batch: batch1, Epochs: wl.epochs, Seed: 29,
		}, train.X, train.Y)
		if err != nil {
			return nil, fmt.Errorf("bench: table2 %s ep1: %w", wl.name, err)
		}
		errEP1 := metrics.ClassificationError(ep1.Model.Predict(test.X), test.Labels)
		rep.AddRow(wl.name, "eigenpro1.0", fmtPct(errEP1), fmtDur(ep1.SimTime), fmtDur(ep1.WallTime),
			fmt.Sprintf("q=%d m=%d", ep1.Params.QAdjusted, ep1.Params.Batch))

		// FALKON.
		centers := scale.pick(200, 400, 1000)
		if centers > n {
			centers = n
		}
		fk, err := falkon.Fit(falkon.Config{
			Kernel: wl.kern, Centers: centers, Lambda: 1e-7, Iters: 20,
			Seed: 29, Device: dev,
		}, train.X, train.Y)
		if err != nil {
			return nil, fmt.Errorf("bench: table2 %s falkon: %w", wl.name, err)
		}
		errFK := metrics.ClassificationError(fk.Model.Predict(test.X), test.Labels)
		rep.AddRow(wl.name, "falkon", fmtPct(errFK), fmtDur(fk.SimTime), fmtDur(fk.WallTime),
			fmt.Sprintf("M=%d iters=%d", centers, fk.Iters))
	}
	rep.AddNote("datasets are scaled synthetics (%s scale)", scale)
	return rep, nil
}

// Table3 regenerates the paper's Table 3 ("interactive training"): wall
// time of EigenPro 2.0 versus the ThunderSVM-like parallel SMO and the
// LibSVM-like sequential SMO, where EigenPro stops as soon as its test
// accuracy matches the SVM's (the paper's protocol).
func Table3(scale Scale) (*Report, error) {
	dev := experimentDevice()
	rep := &Report{
		ID:     "table3",
		Title:  "interactive training: EigenPro 2.0 vs ThunderSVM-like vs LibSVM-like",
		Header: []string{"dataset", "n", "eigenpro", "thundersvm-like", "libsvm-like", "svm err", "eigenpro err"},
	}
	for _, wl := range table3Workloads(scale) {
		train, test := wl.ds.Split(0.8, 19)
		svmCfg := svm.Config{Kernel: wl.kern, C: 10, Seed: 23}

		seq, err := svm.Train(svmCfg, train.X, train.Labels, train.Classes)
		if err != nil {
			return nil, fmt.Errorf("bench: table3 %s svm: %w", wl.name, err)
		}
		svmErr := labelError(seq.Model.PredictLabels(test.X), test.Labels)

		parCfg := svmCfg
		parCfg.Parallel = true
		par, err := svm.Train(parCfg, train.X, train.Labels, train.Classes)
		if err != nil {
			return nil, fmt.Errorf("bench: table3 %s parallel svm: %w", wl.name, err)
		}

		// EigenPro: epoch-by-epoch until test error matches the SVM's.
		sub := scale.pick(200, 350, 800)
		var epTime, epErr = math.Inf(1), math.Inf(1)
		res, err := core.Train(core.Config{
			Kernel: wl.kern, Device: dev, Method: core.MethodEigenPro2,
			S: sub, Epochs: 30, Seed: 23,
			ValX: test.X, ValLabels: test.Labels, Patience: 30,
		}, train.X, train.Y)
		if err != nil {
			return nil, fmt.Errorf("bench: table3 %s eigenpro: %w", wl.name, err)
		}
		// Find the first epoch whose recorded validation error matches the
		// SVM, charging only the wall time up to that epoch.
		for _, st := range res.History {
			if st.ValError <= svmErr || st.Epoch == len(res.History) {
				frac := float64(st.Epoch) / float64(res.Epochs)
				epTime = res.WallTime.Seconds() * frac
				epErr = st.ValError
				break
			}
		}
		rep.AddRow(wl.name, fmt.Sprintf("%d", train.N()),
			fmt.Sprintf("%.2fs", epTime), fmtDur(par.WallTime), fmtDur(seq.WallTime),
			fmtPct(svmErr), fmtPct(epErr))
	}
	rep.AddNote("single-core host: the ThunderSVM-like driver cannot show parallel speedup here; on multi-core hosts it runs one one-vs-rest problem per core")
	rep.AddNote("eigenpro time = wall time to first epoch matching SVM accuracy (paper's protocol)")
	return rep, nil
}

// labelError returns the misclassification rate between predicted and true
// label slices.
func labelError(pred, truth []int) float64 {
	if len(pred) == 0 {
		return 0
	}
	wrong := 0
	for i, p := range pred {
		if p != truth[i] {
			wrong++
		}
	}
	return float64(wrong) / float64(len(pred))
}

// Table4 regenerates the paper's Table 4: the kernel/bandwidth chosen per
// dataset and the automatically calculated optimization parameters
// (q from Eq. 7, the adjusted q actually used, m = m_G, and η).
func Table4(scale Scale) (*Report, error) {
	dev := experimentDevice()
	rep := &Report{
		ID:     "table4",
		Title:  "automatically calculated parameters per dataset",
		Header: []string{"dataset", "n", "kernel", "m*(k)", "q", "adjusted q", "m = m_G", "eta", "m/eta"},
	}
	for _, wl := range table2Workloads(scale) {
		n, d, l := wl.ds.N(), wl.ds.Dim(), wl.ds.LabelDim()
		sub := scale.pick(200, 400, 1000)
		sp, err := core.EstimateSpectrum(wl.kern, wl.ds.X, sub, sub/4, 37)
		if err != nil {
			return nil, fmt.Errorf("bench: table4 %s: %w", wl.name, err)
		}
		p := core.SelectParams(sp, dev, n, d, l)
		rep.AddRow(wl.name, fmt.Sprintf("%d", n), wl.kern.Name(),
			fmt.Sprintf("%.1f", p.MStarOriginal),
			fmt.Sprintf("%d", p.Q), fmt.Sprintf("%d", p.QAdjusted),
			fmt.Sprintf("%d", p.Batch), fmt.Sprintf("%.1f", p.Eta),
			fmt.Sprintf("%.2f", float64(p.Batch)/p.Eta))
	}
	rep.AddNote("paper's Table 4 shows m/η ≈ 2 when β(K_G) ≈ 1; exact relation is m/η = 2(β_G + (m−1)λ_q)")
	return rep, nil
}

// Acceleration verifies the paper's §3 claim: the predicted speedup
// a = (β(K)/β(K_G))·(m_max/m*(k)) against the measured ratio of simulated
// times to reach the same training loss.
func Acceleration(scale Scale) (*Report, error) {
	dev := experimentDevice()
	rep := &Report{
		ID:     "acceleration",
		Title:  "predicted vs measured acceleration of the adaptive kernel",
		Header: []string{"dataset", "m*(k)", "m_max", "predicted a", "measured", "sgd time", "ep2 time"},
	}
	sub := scale.pick(256, 400, 800)
	epochCap := scale.pick(150, 250, 400)
	for _, wl := range figure2Workloads(scale) {
		threshold := 5e-3
		sp, err := core.EstimateSpectrum(wl.kern, wl.ds.X, sub, 64, 43)
		if err != nil {
			return nil, fmt.Errorf("bench: acceleration %s: %w", wl.name, err)
		}
		n, d, l := wl.ds.N(), wl.ds.Dim(), wl.ds.LabelDim()
		p := core.SelectParams(sp, dev, n, d, l)

		mStar := int(math.Max(1, math.Round(p.MStarOriginal)))
		sgd, err := core.Train(core.Config{
			Kernel: wl.kern, Device: dev, Method: core.MethodSGD,
			S: sub, Batch: mStar, Epochs: epochCap, StopTrainMSE: threshold,
			Seed: 47, Spectrum: sp,
		}, wl.ds.X, wl.ds.Y)
		if err != nil {
			return nil, fmt.Errorf("bench: acceleration %s sgd: %w", wl.name, err)
		}
		ep2, err := core.Train(core.Config{
			Kernel: wl.kern, Device: dev, Method: core.MethodEigenPro2,
			S: sub, Epochs: epochCap, StopTrainMSE: threshold,
			Seed: 47, Spectrum: sp,
		}, wl.ds.X, wl.ds.Y)
		if err != nil {
			return nil, fmt.Errorf("bench: acceleration %s ep2: %w", wl.name, err)
		}
		measured := "n/a"
		if sgd.Converged && ep2.Converged && ep2.SimTime > 0 {
			measured = fmt.Sprintf("%.1fx", float64(sgd.SimTime)/float64(ep2.SimTime))
		} else if !sgd.Converged && ep2.Converged {
			measured = fmt.Sprintf(">%.1fx", float64(sgd.SimTime)/float64(ep2.SimTime))
		}
		// Predict from the trained run's parameters: training refines
		// β(K_G) with a probe over extra points, and the prediction should
		// use the β the step size actually used.
		predicted := (ep2.Params.BetaOriginal / ep2.Params.BetaAdapted) *
			float64(ep2.Params.MMax) / ep2.Params.MStarOriginal
		rep.AddRow(wl.name,
			fmt.Sprintf("%.1f", p.MStarOriginal), fmt.Sprintf("%d", p.MMax),
			fmt.Sprintf("%.1fx", predicted), measured,
			fmtDur(sgd.SimTime), fmtDur(ep2.SimTime))
	}
	rep.AddNote("SGD runs at its own optimal batch m*(k); EigenPro 2.0 at m_max; both stop at train mse < 5e-3")
	return rep, nil
}
