package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"eigenpro/internal/device"
	"eigenpro/internal/kernel"
	"eigenpro/internal/mat"
	"eigenpro/internal/metrics"
)

// Method selects the optimization algorithm.
type Method int

const (
	// MethodEigenPro2 is the improved EigenPro iteration of Algorithm 1
	// (double coordinate block descent) whose overhead depends only on the
	// fixed block size s. It is the zero value, so a zero Config trains
	// with the paper's method.
	MethodEigenPro2 Method = iota
	// MethodSGD is plain mini-batch kernel SGD (randomized block
	// coordinate descent on Kα = y), the paper's Eq. 2/3.
	MethodSGD
	// MethodEigenPro1 is the original 2017 EigenPro iteration with
	// preconditioner vectors stored over all n coordinates; its overhead
	// scales with n (paper Table 1, "Original EigenPro").
	MethodEigenPro1
)

// String returns the method name.
func (m Method) String() string {
	switch m {
	case MethodSGD:
		return "sgd"
	case MethodEigenPro1:
		return "eigenpro1"
	case MethodEigenPro2:
		return "eigenpro2"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// MethodByName maps a method name (eigenpro2, eigenpro1, sgd) to its
// Method — the inverse of String, shared by the CLI and the HTTP training
// endpoint.
func MethodByName(name string) (Method, error) {
	for _, m := range []Method{MethodEigenPro2, MethodEigenPro1, MethodSGD} {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown method %q", name)
}

// Config controls a training run. The zero value of every optional field
// selects the paper's automatic choice.
type Config struct {
	// Kernel is required.
	Kernel kernel.Func
	// Device is the simulated resource used for batch-size selection and
	// virtual timing. Defaults to device.SimTitanXp().
	Device *device.Device
	// Method selects the optimizer; default MethodEigenPro2.
	Method Method
	// S is the fixed coordinate block (subsample) size; 0 selects the
	// paper's rule via SubsampleSize.
	S int
	// QMax bounds how many eigenpairs are estimated; 0 selects
	// min(S/4, 256).
	QMax int
	// Q overrides the automatic (Eq. 7 + AdjustQ) choice when > 0.
	Q int
	// Batch overrides m_max when > 0.
	Batch int
	// Eta overrides the analytic step size when > 0.
	Eta float64
	// Epochs is the maximum number of passes over the data (required > 0).
	Epochs int
	// MaxIters optionally bounds total iterations across epochs (0 = off).
	MaxIters int
	// StopTrainMSE stops training once the epoch's running train MSE
	// (mean pre-update mini-batch residual) drops below it (0 = off).
	StopTrainMSE float64
	// ValX/ValLabels enable early stopping on validation classification
	// error when Patience > 0: training stops after Patience epochs
	// without improvement.
	ValX      *mat.Dense
	ValLabels []int
	// Patience is the early-stopping patience in epochs (0 = off).
	Patience int
	// Seed fixes subsampling and batch shuffling.
	Seed int64
	// Spectrum optionally reuses a precomputed spectrum (must match
	// Kernel); nil estimates one.
	Spectrum *Spectrum
	// OnEpoch, when non-nil, is invoked by Train after every completed
	// epoch with that epoch's statistics — the progress hook the async job
	// manager (internal/jobs) and CLIs build on. It runs synchronously on
	// the training goroutine; it is not serialized into checkpoints.
	OnEpoch func(EpochStats)
}

// EpochStats records one epoch of training progress.
type EpochStats struct {
	// Epoch is 1-based.
	Epoch int
	// TrainMSE is the running mean of pre-update mini-batch residual MSE
	// over the epoch — the online estimate of the training loss.
	TrainMSE float64
	// ValError is the validation classification error, or NaN when no
	// validation set is configured.
	ValError float64
	// SimTime is the cumulative simulated device time at epoch end.
	SimTime time.Duration
	// Wall is the cumulative host wall time spent in Step at epoch end —
	// the denominator for device-utilization telemetry.
	Wall time.Duration
	// Iters is the cumulative iteration count at epoch end.
	Iters int
}

// Result reports a completed training run.
type Result struct {
	// Model is the trained predictor.
	Model *Model
	// Params are the analytically selected parameters actually used.
	Params Params
	// Spectrum is the Nyström spectrum used (reusable across runs).
	Spectrum *Spectrum
	// Method echoes the optimizer.
	Method Method
	// Epochs and Iters count completed work.
	Epochs, Iters int
	// SimTime is the simulated device time over all iterations; WallTime
	// is the measured host time of the training loop.
	SimTime, WallTime time.Duration
	// History holds per-epoch statistics.
	History []EpochStats
	// FinalTrainMSE is the last epoch's running train MSE.
	FinalTrainMSE float64
	// Converged reports whether StopTrainMSE was reached.
	Converged bool
	// OpsPerIter is the Table 1 per-iteration operation count charged to
	// the device for a full-size batch.
	OpsPerIter float64
	// MemFloats is the Table 1 working-set size.
	MemFloats int64
}

// Train fits a kernel machine on x (n x d) with one-hot targets y (n x l)
// using the configured method. It returns an error for invalid
// configurations; numerical divergence (NaN/Inf residuals) also aborts with
// an error. Train is NewTrainer followed by Step until completion — use the
// Trainer directly for progress-monitored, cancellable, or checkpointed
// training.
func Train(cfg Config, x, y *mat.Dense) (*Result, error) {
	t, err := NewTrainer(cfg, x, y)
	if err != nil {
		return nil, err
	}
	for !t.Done() {
		stats, err := t.Step()
		if err != nil {
			return nil, err
		}
		if cfg.OnEpoch != nil {
			cfg.OnEpoch(stats)
		}
	}
	return t.Result(), nil
}

// NewTrainer validates the configuration, estimates (or adopts) the
// spectrum, selects the analytic parameters, and returns a Trainer
// positioned before epoch 1.
func NewTrainer(cfg Config, x, y *mat.Dense) (*Trainer, error) {
	if cfg.Kernel == nil {
		return nil, fmt.Errorf("core: Config.Kernel is required")
	}
	if cfg.Epochs < 1 {
		return nil, fmt.Errorf("core: Config.Epochs must be >= 1, got %d", cfg.Epochs)
	}
	if x.Rows != y.Rows {
		return nil, fmt.Errorf("core: %d samples with %d target rows", x.Rows, y.Rows)
	}
	if x.Rows < 4 {
		return nil, fmt.Errorf("core: need at least 4 samples, got %d", x.Rows)
	}
	n, d, l := x.Rows, x.Cols, y.Cols
	dev := cfg.Device
	if dev == nil {
		dev = device.SimTitanXp()
	}

	s := cfg.S
	if s == 0 {
		s = SubsampleSize(n)
	}
	if s > n {
		s = n
	}
	qmax := cfg.QMax
	if qmax == 0 {
		qmax = s / 4
		if qmax > 256 {
			qmax = 256
		}
		if qmax < 1 {
			qmax = 1
		}
	}
	if qmax >= s {
		qmax = s - 1
	}

	sp := cfg.Spectrum
	if sp == nil {
		var err error
		sp, err = EstimateSpectrum(cfg.Kernel, x, s, qmax, cfg.Seed)
		if err != nil {
			return nil, err
		}
	} else {
		if sp.QMax() < 1 {
			return nil, fmt.Errorf("core: provided spectrum has no eigenpairs")
		}
		// A supplied spectrum (user precomputation or a decoded
		// checkpoint) indexes the training rows through SubIdx; entries
		// outside [0, n) would panic deep in the preconditioner.
		for _, idx := range sp.SubIdx {
			if idx < 0 || idx >= n {
				return nil, fmt.Errorf("core: provided spectrum subsample index %d outside %d training rows", idx, n)
			}
		}
	}

	params := SelectParams(sp, dev, n, d, l)
	if cfg.Q > 0 {
		if cfg.Q > sp.QMax() {
			return nil, fmt.Errorf("core: Q=%d exceeds available eigenpairs %d", cfg.Q, sp.QMax())
		}
		params.QAdjusted = cfg.Q
		params.BetaAdapted = BetaPrecond(sp, cfg.Q)
		params.MStarAdapted = MStarPrecond(sp, cfg.Q)
	}
	if cfg.Method == MethodSGD {
		params.QAdjusted = 0
		params.BetaAdapted = sp.Beta
		params.MStarAdapted = params.MStarOriginal
	}
	if cfg.Batch > 0 {
		params.Batch = cfg.Batch
	}
	if params.Batch > n {
		params.Batch = n
	}
	q := params.QAdjusted
	if q > 0 {
		// Refine β(K_G) with a probe over extra training points: the
		// subsample-only estimate can miss high-leverage points, and an
		// underestimated β overestimates the safe step size.
		probeN := 2000
		if probeN > n {
			probeN = n
		}
		probeIdx := rand.New(rand.NewSource(cfg.Seed + 2)).Perm(n)[:probeN]
		if bProbe := BetaPrecondAt(sp, q, x.SelectRows(probeIdx)); bProbe > params.BetaAdapted {
			params.BetaAdapted = bProbe
			if lq := sp.Lambda(q); lq > 0 {
				params.MStarAdapted = params.BetaAdapted / lq
			}
		}
	}
	// Effective top eigenvalue after preconditioning governs the step size.
	lambdaTop := sp.Lambda(1)
	if q > 0 {
		lambdaTop = sp.Lambda(q)
	}
	params.Eta = StepSize(params.Batch, params.BetaAdapted, lambdaTop)
	if cfg.Eta > 0 {
		params.Eta = cfg.Eta
	}

	st, err := newTrainState(cfg, sp, params, x, y)
	if err != nil {
		return nil, err
	}
	return newTrainerFromState(st, dev, n, d, l), nil
}

// trainState holds per-run buffers and the precomputed preconditioner.
type trainState struct {
	cfg    Config
	sp     *Spectrum
	params Params
	x, y   *mat.Dense
	model  *Model

	// EigenPro2 pieces: top-q eigenvectors (s x q) and D diagonal.
	vq    *mat.Dense
	dDiag []float64
	// EigenPro1 pieces: dense n x q coefficient matrices. we holds the
	// eigenfunction-evaluation coefficients (√s/σ_i on subsample rows);
	// wc holds the correction coefficients ((1−σ_q/σ_i) V[j,i]/√s).
	we, wc *mat.Dense

	rng *rand.Rand
}

func newTrainState(cfg Config, sp *Spectrum, params Params, x, y *mat.Dense) (*trainState, error) {
	st := &trainState{
		cfg: cfg, sp: sp, params: params, x: x, y: y,
		model: NewModel(cfg.Kernel, x, y.Cols),
		rng:   rand.New(rand.NewSource(cfg.Seed + 1)),
	}
	q := params.QAdjusted
	if cfg.Method == MethodSGD || q == 0 {
		return st, nil
	}
	sigQ := sp.Sigma[q-1]
	switch cfg.Method {
	case MethodEigenPro2:
		idx := make([]int, q)
		for i := range idx {
			idx[i] = i
		}
		st.vq = sp.V.SelectCols(idx)
		st.dDiag = make([]float64, q)
		for i := 0; i < q; i++ {
			if sp.Sigma[i] > 0 {
				st.dDiag[i] = (1 - sigQ/sp.Sigma[i]) / sp.Sigma[i]
			}
		}
	case MethodEigenPro1:
		n := x.Rows
		s := sp.S()
		sqrtS := math.Sqrt(float64(s))
		st.we = mat.NewDense(n, q)
		st.wc = mat.NewDense(n, q)
		for j, row := range sp.SubIdx {
			for i := 0; i < q; i++ {
				if sp.Sigma[i] <= 0 {
					continue
				}
				v := sp.V.At(j, i)
				st.we.Set(row, i, sqrtS/sp.Sigma[i]*v)
				st.wc.Set(row, i, (1-sigQ/sp.Sigma[i])*v/sqrtS)
			}
		}
	default:
		return nil, fmt.Errorf("core: unknown method %v", cfg.Method)
	}
	return st, nil
}

// iterOps returns the Table 1 operation count for a batch of size m.
func (st *trainState) iterOps(n, d, l, m int) float64 {
	q := st.params.QAdjusted
	switch st.cfg.Method {
	case MethodEigenPro2:
		return ImprovedEigenProIterOps(n, m, d, l, st.sp.S(), q)
	case MethodEigenPro1:
		return OriginalEigenProIterOps(n, m, d, l, q)
	default:
		return SGDIterOps(n, m, d, l)
	}
}

func (st *trainState) memFloats(n, d, l, m int) int64 {
	q := st.params.QAdjusted
	switch st.cfg.Method {
	case MethodEigenPro2:
		return ImprovedEigenProMemoryFloats(n, m, d, l, st.sp.S(), q)
	case MethodEigenPro1:
		return OriginalEigenProMemoryFloats(n, m, d, l, q)
	default:
		return SGDMemoryFloats(n, m, d, l)
	}
}

// ErrTrainingComplete is returned by Trainer.Step once training has
// finished (all epochs run, convergence, early stop, or a prior error).
var ErrTrainingComplete = errors.New("core: training already complete")

// Trainer is the interruptible state machine behind Train. NewTrainer does
// the setup (spectrum, analytic parameter selection, preconditioner); each
// Step runs exactly one epoch; between steps the trainer can be observed
// (Epoch, Result), checkpointed to an io.Writer, and later resumed with
// ResumeTrainer such that the resumed run reproduces an uninterrupted run
// bit for bit. A Trainer is not safe for concurrent use.
type Trainer struct {
	st    *trainState
	dev   *device.Device
	clock *device.Clock
	res   *Result

	n, d, l int
	epoch   int // completed epochs
	done    bool

	// Early-stopping state (validation patience).
	bestVal   float64
	sinceBest int

	// Reusable per-batch buffers sized for a full batch of m rows: the
	// gathered batch features (m x d), its kernel matrix (m x n) and K·α
	// (m x l). The (at most one per epoch) ragged tail batch uses row-prefix
	// views of them.
	xbBuf, kbBuf, fBuf *mat.Dense

	wall time.Duration // accumulated Step wall time
}

func newTrainerFromState(st *trainState, dev *device.Device, n, d, l int) *Trainer {
	m := st.params.Batch
	t := &Trainer{
		st:      st,
		dev:     dev,
		clock:   device.NewClock(dev),
		n:       n,
		d:       d,
		l:       l,
		bestVal: math.Inf(1),
		xbBuf:   mat.NewDense(m, d),
		kbBuf:   mat.NewDense(m, n),
		fBuf:    mat.NewDense(m, l),
	}
	t.res = &Result{
		Model:      st.model,
		Params:     st.params,
		Spectrum:   st.sp,
		Method:     st.cfg.Method,
		OpsPerIter: st.iterOps(n, d, l, m),
		MemFloats:  st.memFloats(n, d, l, m),
	}
	return t
}

// Done reports whether training has finished: the epoch budget is spent,
// StopTrainMSE was reached, validation patience ran out, MaxIters was hit,
// or a Step failed.
func (t *Trainer) Done() bool { return t.done }

// Epoch returns the number of completed epochs.
func (t *Trainer) Epoch() int { return t.epoch }

// Result returns the training result accumulated so far. It is valid both
// after completion and between steps (partial history); SimTime and
// WallTime reflect the work done up to now.
func (t *Trainer) Result() *Result {
	t.res.SimTime = t.clock.Elapsed()
	t.res.WallTime = t.wall
	return t.res
}

// Step runs one epoch and returns its statistics. After the final epoch
// (or convergence / early stop) Done reports true and further Steps return
// ErrTrainingComplete. A divergence error also marks the trainer done.
func (t *Trainer) Step() (EpochStats, error) {
	if t.done {
		return EpochStats{}, ErrTrainingComplete
	}
	start := time.Now()
	defer func() { t.wall += time.Since(start) }()

	st, cfg, params, res := t.st, t.st.cfg, t.st.params, t.res
	n, d, l := t.n, t.d, t.l
	alpha := st.model.Alpha
	m := params.Batch
	eta := params.Eta
	epoch := t.epoch + 1

	perm := st.rng.Perm(n)
	sumSq, count := 0.0, 0
	for lo := 0; lo < n; lo += m {
		if cfg.MaxIters > 0 && res.Iters >= cfg.MaxIters {
			break
		}
		hi := lo + m
		if hi > n {
			hi = n
		}
		batch := perm[lo:hi]
		mt := len(batch)
		etaT := eta
		if mt != m {
			lambdaTop := st.sp.Lambda(1)
			if params.QAdjusted > 0 {
				lambdaTop = st.sp.Lambda(params.QAdjusted)
			}
			etaT = StepSize(mt, params.BetaAdapted, lambdaTop)
			if cfg.Eta > 0 {
				etaT = cfg.Eta * float64(mt) / float64(m)
			}
		}
		xb, kb, f := t.xbBuf, t.kbBuf, t.fBuf
		if mt != m {
			xb = mat.NewDenseData(mt, d, xb.Data[:mt*d])
			kb = mat.NewDenseData(mt, n, kb.Data[:mt*n])
			f = mat.NewDenseData(mt, l, f.Data[:mt*l])
		}
		st.x.SelectRowsInto(xb, batch)
		kernel.MatrixInto(kb, cfg.Kernel, xb, st.x) // mt x n
		mat.MulTo(f, kb, alpha)                     // mt x l
		// Residual r = f − y_batch; accumulate pre-update loss.
		r := f
		for t, row := range batch {
			yRow := st.y.RowView(row)
			rRow := r.RowView(t)
			for j := range rRow {
				rRow[j] -= yRow[j]
				sumSq += float64(rRow[j] * rRow[j])
			}
		}
		count += mt * l
		scale := etaT * 2 / float64(mt)
		if math.IsNaN(sumSq) || math.IsInf(sumSq, 0) {
			t.done = true
			return EpochStats{}, fmt.Errorf("core: training diverged at epoch %d (method %v, eta %v)", epoch, cfg.Method, etaT)
		}
		// Step 3 (Algorithm 1): SGD update on the sampled block.
		for t, row := range batch {
			mat.Axpy(-scale, r.RowView(t), alpha.RowView(row))
		}
		// Steps 4-5: preconditioner correction.
		switch {
		case cfg.Method == MethodEigenPro2 && params.QAdjusted > 0:
			// Φ = kb columns at the subsample indices (transposed view).
			w := kb.SelectCols(st.sp.SubIdx) // m x s
			t1 := mat.TMul(w, r)             // s x l  (= Φ r)
			t2 := mat.TMul(st.vq, t1)        // q x l
			for i := 0; i < t2.Rows; i++ {
				di := st.dDiag[i]
				row := t2.RowView(i)
				for j := range row {
					row[j] *= di
				}
			}
			t3 := mat.Mul(st.vq, t2) // s x l
			for j, row := range st.sp.SubIdx {
				mat.Axpy(scale, t3.RowView(j), alpha.RowView(row))
			}
		case cfg.Method == MethodEigenPro1 && params.QAdjusted > 0:
			eb := mat.Mul(kb, st.we) // m x q eigenfunction values (n·m·q)
			t1 := mat.TMul(eb, r)    // q x l
			delta := mat.Mul(st.wc, t1)
			mat.AddScaledInPlace(alpha, scale, delta) // n·q·l
		}
		t.clock.Charge(st.iterOps(n, d, l, mt))
		res.Iters++
	}
	stats := EpochStats{
		Epoch:    epoch,
		TrainMSE: sumSq / float64(count),
		ValError: math.NaN(),
		SimTime:  t.clock.Elapsed(),
		Wall:     t.wall + time.Since(start),
		Iters:    res.Iters,
	}
	if cfg.ValX != nil && len(cfg.ValLabels) > 0 {
		stats.ValError = metrics.ClassificationError(st.model.Predict(cfg.ValX), cfg.ValLabels)
	}
	res.History = append(res.History, stats)
	res.Epochs = epoch
	res.FinalTrainMSE = stats.TrainMSE
	t.epoch = epoch
	if math.IsNaN(stats.TrainMSE) || stats.TrainMSE > 1e30 {
		t.done = true
		return stats, fmt.Errorf("core: training diverged at epoch %d (method %v, train mse %v)", epoch, cfg.Method, stats.TrainMSE)
	}
	if cfg.StopTrainMSE > 0 && stats.TrainMSE < cfg.StopTrainMSE {
		res.Converged = true
		t.done = true
	}
	if cfg.Patience > 0 && !math.IsNaN(stats.ValError) {
		if stats.ValError < t.bestVal-1e-12 {
			t.bestVal = stats.ValError
			t.sinceBest = 0
		} else {
			t.sinceBest++
			if t.sinceBest >= cfg.Patience {
				t.done = true
			}
		}
	}
	if cfg.MaxIters > 0 && res.Iters >= cfg.MaxIters {
		t.done = true
	}
	if epoch >= cfg.Epochs {
		t.done = true
	}
	return stats, nil
}
