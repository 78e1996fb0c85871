package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"eigenpro/internal/core"
	"eigenpro/internal/device"
	"eigenpro/internal/eigen"
	"eigenpro/internal/kernel"
	"eigenpro/internal/mat"
	"eigenpro/perfbench/bench"
)

// measure calls f once to warm up, then calls times, and returns the
// median wall time per call and the heap allocations per call.
func measure(calls int, f func()) (time.Duration, float64) {
	f()
	var before, after runtime.MemStats
	durs := make([]float64, calls)
	runtime.ReadMemStats(&before)
	for i := range durs {
		t0 := time.Now()
		f()
		durs[i] = float64(time.Since(t0))
	}
	runtime.ReadMemStats(&after)
	return time.Duration(bench.Median(durs)), float64(after.Mallocs-before.Mallocs) / float64(calls)
}

// replay times one layer call at a real shape, records it as a span and a
// Replay entry, and returns the median time per call. ops and bytes are
// computed from the shape.
func replay(e *env, res *bench.Result, call, shape string, calls int, ops, bytes float64, f func()) time.Duration {
	t0 := time.Now()
	per, allocs := measure(calls, f)
	e.tr.Record("replay "+call, shape, 0, t0, time.Now(), map[string]float64{
		"calls": float64(calls), "ms_per_call": ms(per), "allocs_per_call": allocs,
		"ops_computed": ops, "bytes_computed": bytes,
	})
	res.Replays = append(res.Replays, bench.Replay{
		Call: call, Shape: shape, Calls: calls, MsPerCall: ms(per),
		AllocsPerOp: allocs, Ops: ops, Bytes: bytes,
	})
	return per
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func set(res *bench.Result, name string, v float64, note string) {
	d, ok := bench.Find(bench.Layers, name)
	if !ok {
		panic("perfbench: undefined layer metric " + name)
	}
	res.Layers[name] = bench.Metric{Value: v, Unit: d.Unit, Note: note}
}

func e2e(res *bench.Result, name string, v float64) {
	d, ok := bench.Find(bench.EndToEnd, name)
	if !ok {
		panic("perfbench: undefined end-to-end metric " + name)
	}
	res.EndToEnd[name] = bench.Metric{Value: v, Unit: d.Unit}
}

func gflops(flops float64, d time.Duration) float64 { return flops / d.Seconds() / 1e9 }

func dims(ds ...int) string {
	parts := make([]string, len(ds))
	for i, d := range ds {
		parts[i] = strconv.Itoa(d)
	}
	return strings.Join(parts, "x")
}

// shapeReplays measures the distance GEMM, the kernel matrix and the K·α
// product at the workload's main shape, m x n x d with l outputs, and
// returns the kernel-matrix and K·α times. kb (m x n) and f (m x l) are
// the caller's buffers; on return they hold K(xb, x) and K(xb, x)·alpha.
func shapeReplays(e *env, res *bench.Result, k kernel.Func, xb, x, alpha, kb, f *mat.Dense) (tMatrix, tMulTo time.Duration) {
	m, n, d, l := xb.Rows, x.Rows, x.Cols, alpha.Cols
	fm, fn, fd, fl := float64(m), float64(n), float64(d), float64(l)
	calls := callsFor(2 * fm * fn * fd)
	tGemm := replay(e, res, "mat.MulTTo", dims(m, n, d), calls, 2*fm*fn*fd, 8*(fm*fd+fn*fd+fm*fn),
		func() { mat.MulTTo(kb, xb, x) })
	_, allocs := measure(1, func() { mat.MulTTo(kb, xb, x) })
	tMatrix = replay(e, res, "kernel.MatrixInto", dims(m, n, d), calls, 2*fm*fn*fd+fm*fn, 8*(fm*fd+fn*fd+fm*fn),
		func() { kernel.MatrixInto(kb, k, xb, x) })
	tMulTo = replay(e, res, "mat.MulTo", dims(m, n, l), callsFor(2*fm*fn*fl), 2*fm*fn*fl, 8*(fm*fn+fn*fl+fm*fl),
		func() { mat.MulTo(f, kb, alpha) })
	set(res, "mat.multt.gflops", gflops(2*fm*fn*fd, tGemm), "")
	set(res, "mat.multt.allocs", allocs, "")
	set(res, "mat.multo.gflops", gflops(2*fm*fn*fl, tMulTo), "")
	set(res, "kernel.matrix_ms", ms(tMatrix), "")
	set(res, "kernel.map_frac", float64(tMatrix-tGemm)/float64(tMatrix), "")
	return tMatrix, tMulTo
}

// callsFor picks how many timed calls a replay of the given flop count
// gets: enough for a stable median, at most about a second per replay on a
// host doing ~1 GFLOP/s.
func callsFor(flops float64) int {
	c := int(1e9 / math.Max(flops, 1))
	return min(max(c, 3), 50)
}

// predictSizes are the batch sizes of the predict sweep; the last is the
// simulated device's serving m_max for the model.
var predictSizes = []string{"b1", "b8", "b32", "b128", "bmax"}

// predictReplays sweeps Model.PredictBatch over batch sizes 1..m_max on
// rows of pool, and measures the 1-row distance GEMM. It reports the
// simulated serving m_max and the device model's error at m_max.
func predictReplays(e *env, res *bench.Result, model *core.Model, pool *mat.Dense) {
	n, d, l := model.X.Rows, model.X.Cols, model.Alpha.Cols
	dev := device.SimTitanXp()
	bmax := dev.ServeBatch(n, d, l)
	for i, b := range []int{1, 8, 32, 128, bmax} {
		xq := rowsOf(pool, b)
		flops := core.PredictOps(n, b, d, l)
		per := replay(e, res, "core.Model.PredictBatch", dims(b, n, d, l), callsFor(2*flops),
			2*flops, 8*float64(b*d+n*d+b*n+n*l+b*l),
			func() { model.PredictBatch(xq, 0) })
		_, allocs := measure(1, func() { model.PredictBatch(xq, 0) })
		set(res, "core.predict.ms_per_row."+predictSizes[i], ms(per)/float64(b), "")
		set(res, "core.predict.allocs."+predictSizes[i], allocs, "")
		if b == bmax {
			sim := dev.IterationTime(flops)
			set(res, "device.model_error.serve", sim.Seconds()/per.Seconds(), "simulated")
		}
	}
	set(res, "device.mmax.serve", float64(bmax), "simulated")
	x1 := rowsOf(pool, 1)
	dst := mat.NewDense(1, n)
	t1 := replay(e, res, "mat.MulTTo", dims(1, n, d), 50, 2*float64(n*d), 8*float64(d+n*d+n),
		func() { mat.MulTTo(dst, x1, model.X) })
	set(res, "mat.multt.gflops.b1", gflops(2*float64(n*d), t1), "")
}

// perm returns a seeded permutation of [0, n).
func perm(seed int64, n int) []int { return rand.New(rand.NewSource(seed)).Perm(n) }

// rowsOf returns b rows of pool, cycling when b exceeds its size.
func rowsOf(pool *mat.Dense, b int) *mat.Dense {
	out := mat.NewDense(b, pool.Cols)
	for i := 0; i < b; i++ {
		copy(out.RowView(i), pool.RowView(i%pool.Rows))
	}
	return out
}

// trainReplays replays one training epoch's layer calls at the trainer's
// own shapes and call counts (full batches plus the ragged tail), and the
// set-up calls at its subsample size. The full batch is the workload's main
// shape. stepTime is the measured median epoch wall time, against which
// the replays' share is reported.
func trainReplays(e *env, res *bench.Result, r *core.Result, x *mat.Dense, seed int64, stepTime time.Duration) {
	p, sp := r.Params, r.Spectrum
	n, d, l := p.N, p.Dim, p.Labels
	m, s, q := p.Batch, p.S, p.QAdjusted
	k := r.Model.Kern
	order := perm(seed+5, n)
	alpha := r.Model.Alpha
	qIdx := make([]int, q)
	for i := range qIdx {
		qIdx[i] = i
	}
	vq := sp.V.SelectCols(qIdx)

	// iteration replays one EigenPro 2 iteration's layer calls at batch
	// size b and returns their summed median times.
	iteration := func(b int) time.Duration {
		xb := x.SelectRows(order[:b])
		fb, fs, fq, fl := float64(b), float64(s), float64(q), float64(l)
		kb, f := mat.NewDense(b, n), mat.NewDense(b, l)
		var total time.Duration
		if b == m {
			tMatrix, tMulTo := shapeReplays(e, res, k, xb, x, alpha, kb, f)
			total = tMatrix + tMulTo
		} else {
			fn, fd := float64(n), float64(d)
			total = replay(e, res, "kernel.Matrix", dims(b, n, d), callsFor(2*fb*fn*fd), 2*fb*fn*fd+fb*fn, 8*(fb*fd+fn*fd+fb*fn),
				func() { kb = kernel.Matrix(k, xb, x) })
			total += replay(e, res, "mat.Mul", dims(b, n, l), callsFor(2*fb*fn*fl), 2*fb*fn*fl, 8*(fb*fn+fn*fl+fb*fl),
				func() { f = mat.Mul(kb, alpha) })
		}
		var w *mat.Dense
		total += replay(e, res, "mat.Dense.SelectCols", dims(b, s), 5, 0, 16*fb*fs,
			func() { w = kb.SelectCols(sp.SubIdx) })
		var t1, t2 *mat.Dense
		tT := replay(e, res, "mat.TMul", dims(s, b, l), 10, 2*fb*fs*fl, 8*(fb*fs+fb*fl+fs*fl),
			func() { t1 = mat.TMul(w, f) })
		if b == m {
			set(res, "mat.tmul.gflops", gflops(2*fb*fs*fl, tT), "")
		}
		total += tT
		total += replay(e, res, "mat.TMul", dims(q, s, l), 10, 2*fs*fq*fl, 8*(fs*fq+fs*fl+fq*fl),
			func() { t2 = mat.TMul(vq, t1) })
		total += replay(e, res, "mat.Mul", dims(s, q, l), 10, 2*fs*fq*fl, 8*(fs*fq+fq*fl+fs*fl),
			func() { mat.Mul(vq, t2) })
		return total
	}
	full, tail := n/m, n%m
	iterFull := iteration(m)
	epoch := time.Duration(full) * iterFull
	ops := float64(full) * core.ImprovedEigenProIterOps(n, m, d, l, s, q)
	if tail > 0 {
		epoch += iteration(tail)
		ops += core.ImprovedEigenProIterOps(n, tail, d, l, s, q)
	}
	iters := (n + m - 1) / m
	set(res, "core.step.iter_ms", ms(iterFull), "")
	set(res, "core.step.iters", float64(iters), "")
	set(res, "core.step.sim_ops", ops, "computed")
	set(res, "core.step.unattributed_frac", 1-epoch.Seconds()/stepTime.Seconds(), "")
	dev := device.SimTitanXp()
	set(res, "device.mmax.train", float64(p.MMax), "simulated")
	set(res, "device.model_error.train",
		dev.IterationTime(r.OpsPerIter).Seconds()/(stepTime.Seconds()/float64(iters)), "simulated")

	// Set-up calls at the trainer's subsample size.
	qmax := sp.QMax()
	fd := float64(d)
	var gram *mat.Dense
	fs := float64(s)
	tGram := replay(e, res, "kernel.Gram", dims(s, s, d), 1, 2*fs*fs*fd+fs*fs, 8*(fs*fd+fs*fs),
		func() { gram = kernel.Gram(k, sp.Xsub) })
	blk := float64(qmax + 20)
	// Twelve power steps plus the Rayleigh–Ritz products, and a
	// Gram–Schmidt orthonormalization after each power step.
	topOps := 14*2*fs*fs*blk + 13*2*fs*blk*blk
	tTop := replay(e, res, "eigen.TopQSym", dims(s, qmax), 1, topOps, 8*(fs*fs+fs*blk),
		func() {
			if _, err := eigen.TopQSym(gram, qmax, eigen.TopQOptions{Iters: 12, Oversample: 20, Seed: seed + 1}); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: TopQSym replay:", err)
			}
		})
	tSpec := replay(e, res, "core.EstimateSpectrum", dims(n, s, qmax), 1, 2*fs*fs*fd+fs*fs+topOps, 8*(fs*fd+fs*fs), func() {
		if _, err := core.EstimateSpectrum(k, x, s, qmax, seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: EstimateSpectrum replay:", err)
		}
	})
	probeN := min(2000, n)
	probe := x.SelectRows(rand.New(rand.NewSource(seed + 2)).Perm(n)[:probeN])
	fp := float64(probeN)
	tProbe := replay(e, res, "core.BetaPrecondAt", dims(probeN, s, q), 1, 2*fp*fs*fd+2*fp*fs*float64(q), 8*(fp*fd+fs*fd+fp*fs),
		func() { core.BetaPrecondAt(sp, q, probe) })
	set(res, "kernel.gram_s", tGram.Seconds(), "")
	set(res, "eigen.topq_s", tTop.Seconds(), "")
	set(res, "core.setup.spectrum_s", tSpec.Seconds(), "")
	set(res, "core.setup.probe_s", tProbe.Seconds(), "")
}

// resetPeakRSS drops the benchmark's own input-generation garbage and
// restarts this process's peak-RSS count from its current resident size,
// so that peakRSSMB("self") covers only the work measured after it.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write([]byte("5"))
	return err
}

// peakRSSMB returns the peak resident set size (VmHWM) of a process, in
// MB; "self" names this process.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
