package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"time"

	"eigenpro/internal/core"
	"eigenpro/internal/data"
	"eigenpro/internal/durable"
	"eigenpro/internal/jobs"
	"eigenpro/internal/kernel"
	"eigenpro/internal/mat"
	"eigenpro/perfbench/bench"
)

// train-mnist: NewTrainer, then Step to a fixed epoch budget, on
// MNIST-like data with every training choice automatic except the
// subsample size (see README.md for why s is fixed).
const (
	mnistN      = 2000
	mnistS      = 500
	mnistSigma  = 5
	mnistEpochs = 6
	mnistSetups = 3
)

func trainMNIST(e *env, res *bench.Result) error {
	ds := data.MNISTLike(mnistN, e.seed)
	cfg := core.Config{Kernel: kernel.Gaussian{Sigma: mnistSigma}, Epochs: mnistEpochs, Seed: e.seed, S: mnistS}
	if err := resetPeakRSS(); err != nil {
		return err
	}

	// Set-up runs several times; every trainer must choose the same
	// parameters, and the last one trains.
	var t *core.Trainer
	setups := make([]float64, mnistSetups)
	for i := range setups {
		res.Attempted++
		t0 := time.Now()
		next, err := core.NewTrainer(cfg, ds.X, ds.Y)
		t1 := time.Now()
		e.tr.Record("core.NewTrainer", fmt.Sprintf("setup-%d", i), 0, t0, t1, nil)
		if err != nil {
			return fmt.Errorf("NewTrainer: %w", err)
		}
		if t != nil && next.Result().Params != t.Result().Params {
			res.Failed++
			e.log("MISMATCH setup %d chose %+v, the previous one %+v", i, next.Result().Params, t.Result().Params)
		}
		t, setups[i] = next, t1.Sub(t0).Seconds()
	}
	p := t.Result().Params
	e.log("train-mnist n=%d d=%d l=%d m=%d s=%d q=%d eta=%.4g (m_max from the simulated device)",
		p.N, p.Dim, p.Labels, p.Batch, p.S, p.QAdjusted, p.Eta)

	var steps []float64
	var first float64
	for !t.Done() {
		res.Attempted++
		t0 := time.Now()
		st, err := t.Step()
		t1 := time.Now()
		e.tr.Record("core.Trainer.Step", fmt.Sprintf("epoch-%d", st.Epoch), 0, t0, t1,
			map[string]float64{"train_mse": st.TrainMSE})
		if err != nil {
			return fmt.Errorf("Step: %w", err)
		}
		if len(steps) == 0 {
			first = st.TrainMSE
		}
		steps = append(steps, t1.Sub(t0).Seconds())
	}
	r := t.Result()
	// Quality check: training must have reduced the loss.
	if !(r.FinalTrainMSE < first) || math.IsNaN(r.FinalTrainMSE) {
		res.Failed++
		e.log("QUALITY final train MSE %v is not below the first epoch's %v", r.FinalTrainMSE, first)
	}
	trainS := 0.0
	for _, s := range steps {
		trainS += s
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	e2e(res, "setup_s", bench.Median(setups))
	e2e(res, "train_s", trainS)
	e2e(res, "epoch_s", bench.Median(steps))
	e2e(res, "train_mse", r.FinalTrainMSE)
	e2e(res, "peak_rss_mb", rss)
	res.Checks["coef_sha256"] = hashDense(r.Model.Alpha)
	res.Checks["train_mse"] = fmt.Sprint(r.FinalTrainMSE)
	res.Summary = map[string]bench.Metric{
		"setup_s":     {Value: bench.Median(setups), Unit: "s"},
		"lat_p50_ms":  {Value: 1000 * bench.Median(steps), Unit: "ms"},
		"peak_rss_mb": {Value: rss, Unit: "MB"},
	}
	if !e.tr.On() {
		return nil
	}
	stepTime := time.Duration(bench.Median(steps) * float64(time.Second))
	durableReplays(e, res, t)
	trainReplays(e, res, r, ds.X, e.seed, stepTime)
	if err := jobReplay(e, res, cfg, ds.X, ds.Y); err != nil {
		return err
	}
	predictReplays(e, res, r.Model, ds.X.SelectRows(perm(e.seed+6, p.N)[:min(poolRows, p.N)]))
	return nil
}

// jobEpochs is the epoch budget of the job-layer replay.
const jobEpochs = 3

// jobReplay runs the workload's training once more as a job of an
// in-process persistent job manager, so the jobs and durable layers are
// timed at this workload's shape: queue wait, epoch time, last epoch until
// Finished, and the fsyncs the job cost.
func jobReplay(e *env, res *bench.Result, cfg core.Config, x, y *mat.Dense) error {
	m, err := jobs.Open(jobs.Config{Workers: 1, StateDir: filepath.Join(e.tmp, "jobs")})
	if err != nil {
		return err
	}
	defer m.Close()
	var mu sync.Mutex
	var ends []time.Time
	cfg.Epochs = jobEpochs
	cfg.OnEpoch = func(core.EpochStats) {
		mu.Lock()
		ends = append(ends, time.Now())
		mu.Unlock()
	}
	fsyncs := durable.Fsyncs()
	t0 := time.Now()
	id, err := m.Submit(jobs.Spec{Name: "replay", Config: cfg, X: x, Y: y})
	if err != nil {
		return err
	}
	info, err := m.Wait(id)
	if err != nil {
		return err
	}
	e.tr.Record("jobs.Manager.Submit+Wait", id, 0, t0, time.Now(), nil)
	if info.State != jobs.StateDone || len(ends) == 0 {
		return fmt.Errorf("replay job ended %s after %d epochs: %s", info.State, len(ends), info.Error)
	}
	set(res, "jobs.queue_wait_s", info.Started.Sub(info.Submitted).Seconds(), "")
	set(res, "jobs.epoch_s", medianGap(ends).Seconds(), "")
	set(res, "jobs.register_s", info.Finished.Sub(ends[len(ends)-1]).Seconds(), "")
	set(res, "durable.fsyncs", float64(durable.Fsyncs()-fsyncs), "")
	return nil
}

// medianGap returns the median time between consecutive epoch ends, which
// leaves out the trainer set-up before the first.
func medianGap(ends []time.Time) time.Duration {
	var gaps []float64
	for i := 1; i < len(ends); i++ {
		gaps = append(gaps, float64(ends[i].Sub(ends[i-1])))
	}
	return time.Duration(bench.Median(gaps))
}

// hashDense returns a hex SHA-256 of a matrix's shape and exact bits.
func hashDense(a *mat.Dense) string {
	h := sha256.New()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(a.Rows)<<32|uint64(a.Cols))
	h.Write(b[:])
	for _, v := range a.Data {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
