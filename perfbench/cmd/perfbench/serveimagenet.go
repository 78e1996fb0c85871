package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"eigenpro/internal/core"
	"eigenpro/internal/data"
	"eigenpro/internal/kernel"
	"eigenpro/internal/mat"
	"eigenpro/internal/serve"
	"eigenpro/perfbench/bench"
)

// The served model: ImageNet-features-like centres with seeded
// coefficients. Serving cost depends on the shape alone.
const (
	imnCenters = 4000
	imnSigma   = 16
	poolRows   = 256
)

// serve-imagenet load: open-loop single-row Predict calls in rounds of
// one window at lo and one at hi, so both rates sample the whole run, then
// an ascending rate ladder. Window and step lengths are shares of
// --seconds.
const (
	loRate      = 150.0
	hiRate      = 450.0
	latLimitMs  = 100.0
	lagLimitMs  = 50.0
	serveSetups = 9
	// rounds of lo and hi windows; a p99 is the median of the windows'
	// p99s, so one stall of the shared host moves it little.
	rounds      = 8
	stepWindows = 3
)

// ladder is the rate ladder, in requests per second; each step lasts 4 %
// of --seconds. It ends after two rates in a row miss the limit.
var ladder = []float64{500, 600, 700, 800, 900, 1000, 1100, 1200, 1300, 1400, 1500, 1600}

// imagenetModel returns the served model, its gob encoding, a pool of
// query rows, and the expected output of every pool row, computed with
// Model.Predict one row at a time.
func imagenetModel(seed int64) (*core.Model, []byte, *mat.Dense, [][]float64, error) {
	ds := data.ImageNetFeaturesLike(imnCenters, seed)
	m := core.NewModel(kernel.Gaussian{Sigma: imnSigma}, ds.X, ds.LabelDim())
	rng := rand.New(rand.NewSource(seed + 7))
	for i := range m.Alpha.Data {
		m.Alpha.Data[i] = rng.NormFloat64()
	}
	var buf bytes.Buffer
	if err := core.SaveModel(&buf, m); err != nil {
		return nil, nil, nil, nil, err
	}
	pool := data.ImageNetFeaturesLike(poolRows, seed+1).X
	want := make([][]float64, poolRows)
	for i := range want {
		want[i] = m.Predict(pool.SliceRows(i, i+1)).RowView(0)
	}
	return m, buf.Bytes(), pool, want, nil
}

// sameBits reports whether two rows are equal bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

var errWrongOutput = errors.New("served row differs from Model.Predict")

func serveImageNet(e *env, res *bench.Result) error {
	model, gob, pool, want, err := imagenetModel(e.seed)
	if err != nil {
		return err
	}
	if err := resetPeakRSS(); err != nil {
		return err
	}
	ctx := context.Background()

	// Set-up: a default-config server, the public gob load, Register, and
	// the first response. The last server of several stays up.
	var srv *serve.Server
	setups := make([]float64, serveSetups)
	for i := range setups {
		req := fmt.Sprintf("setup-%d", i)
		res.Attempted++
		runtime.GC() // each set-up starts from a collected heap
		t0 := time.Now()
		s := serve.New(serve.Config{})
		t1 := time.Now()
		m, err := core.LoadModel(bytes.NewReader(gob))
		if err != nil {
			return fmt.Errorf("LoadModel: %w", err)
		}
		t2 := time.Now()
		if err := s.Register("default", m); err != nil {
			return fmt.Errorf("Register: %w", err)
		}
		t3 := time.Now()
		out, err := s.Predict(ctx, "default", pool.RowView(0))
		t4 := time.Now()
		root := e.tr.Record("setup", req, 0, t0, t4, nil)
		e.tr.Record("serve.New", req, root, t0, t1, nil)
		e.tr.Record("core.LoadModel", req, root, t1, t2, nil)
		e.tr.Record("serve.Server.Register", req, root, t2, t3, nil)
		e.tr.Record("serve.Server.Predict", req, root, t3, t4, nil)
		if err != nil || !sameBits(out, want[0]) {
			res.Failed++
		}
		setups[i] = t4.Sub(t0).Seconds()
		if srv != nil {
			srv.Close()
		}
		srv = s
	}
	defer srv.Close()

	phase := func(name string, idx int, rate float64, dur time.Duration) []bench.Outcome {
		sched := bench.Poisson(e.seed*1000+int64(idx), rate, dur, poolRows)
		outs := bench.RunOpenLoop(time.Now(), sched, nil, func(i int, a bench.Arrival) error {
			t0 := time.Now()
			out, err := srv.Predict(ctx, "default", pool.RowView(a.Row))
			e.tr.Record("serve.Server.Predict", fmt.Sprintf("%s-%d", name, i), 0, t0, time.Now(), nil)
			if err != nil {
				return err
			}
			if !sameBits(out, want[a.Row]) {
				return errWrongOutput
			}
			return nil
		})
		lat := bench.LatenciesMs(outs)
		e.log("phase %-8s rate=%-5.0f sent=%-5d p50=%7.2fms p99=%8.2fms max=%8.2fms lag-p99=%6.2fms",
			name, rate, len(outs), bench.Percentile(lat, 0.5), bench.Percentile(lat, 0.99),
			bench.Percentile(lat, 1), bench.Percentile(bench.LagsMs(outs), 0.99))
		return outs
	}
	var all []bench.Outcome
	count := func(outs []bench.Outcome) {
		all = append(all, outs...)
		for _, o := range outs {
			res.Attempted++
			if o.Err != nil {
				res.Failed++
			}
		}
	}
	total := time.Duration(e.seconds) * time.Second
	phase("warmup", 0, loRate, 500*time.Millisecond)

	phase("hiwarmup", 1, hiRate, 500*time.Millisecond)
	before := srv.Stats()
	window := total * 64 / 100 / (2 * rounds)
	var lo, hi []bench.Outcome
	var loP99s, hiP99s []float64
	for r := 0; r < rounds; r++ {
		l := phase(fmt.Sprintf("lo%d", r), 10+r, loRate, window)
		h := phase(fmt.Sprintf("hi%d", r), 30+r, hiRate, window)
		lo, hi = append(lo, l...), append(hi, h...)
		loP99s = append(loP99s, bench.Percentile(bench.LatenciesMs(l), 0.99))
		hiP99s = append(hiP99s, bench.Percentile(bench.LatenciesMs(h), 0.99))
	}
	after := srv.Stats()
	hiTraces := srv.Tracer().Snapshot()
	count(lo)
	count(hi)
	loMs, hiMs := bench.LatenciesMs(lo), bench.LatenciesMs(hi)
	e2e(res, "lat_p50_ms.lo", bench.Percentile(loMs, 0.50))
	e2e(res, "lat_p99_ms.lo", bench.Median(loP99s))
	e2e(res, "lat_p50_ms.hi", bench.Percentile(hiMs, 0.50))
	e2e(res, "lat_p99_ms.hi", bench.Median(hiP99s))
	// Peak RSS through set-up and the rounds, leaving out input generation
	// and the ladder, whose overloaded steps form batches of a size that
	// varies from run to run.
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	// The generator must keep to its schedule where the server keeps up.
	lagP99 := bench.Percentile(bench.LagsMs(append(append([]bench.Outcome(nil), lo...), hi...)), 0.99)

	// Ladder: the highest rate whose p99 meets the limit with no growing
	// backlog, reported as that step's measured goodput.
	step := total * 4 / 100
	maxRate, misses := 0.0, 0
	for i, rate := range ladder {
		var outs []bench.Outcome
		var p99s []float64
		for w := 0; w < stepWindows; w++ {
			o := phase(fmt.Sprintf("ladder%d-%d", i, w), 100+10*i+w, rate, step/stepWindows)
			p99s = append(p99s, bench.Percentile(bench.LatenciesMs(o), 0.99))
			outs = append(outs, o...)
		}
		count(outs)
		lat := bench.LatenciesMs(outs)
		if bench.Median(p99s) > latLimitMs || growing(outs) {
			if misses++; misses == 2 {
				break
			}
			continue
		}
		misses = 0
		good := 0
		for _, v := range lat {
			if v <= latLimitMs {
				good++
			}
		}
		maxRate = float64(good) / step.Seconds()
	}
	e2e(res, "max_rate_rps", maxRate)
	if lagP99 > lagLimitMs {
		res.Invalid = fmt.Sprintf("generator lag p99 %.1f ms at lo and hi exceeds %.0f ms", lagP99, lagLimitMs)
	}
	e2e(res, "setup_s", bench.Median(setups))
	e2e(res, "peak_rss_mb", rss)
	res.Summary = map[string]bench.Metric{
		"setup_s":     {Value: bench.Median(setups), Unit: "s"},
		"lat_p50_ms":  {Value: res.EndToEnd["lat_p50_ms.lo"].Value, Unit: "ms"},
		"peak_rss_mb": {Value: rss, Unit: "MB"},
	}
	if !e.tr.On() {
		return nil
	}
	set(res, "gen.lag_p99_ms", lagP99, "")
	set(res, "gen.sent", float64(len(all)), "")

	// Serving-layer metrics of the lo and hi rounds, from the server's
	// counters and the span traces it retained (its most recent requests,
	// from the last hi window).
	batches := after.Batches - before.Batches
	rowsExec := after.MeanOccupancy*float64(after.Batches) - before.MeanOccupancy*float64(before.Batches)
	occ := rowsExec / float64(max(batches, 1))
	set(res, "serve.batches", float64(batches), "")
	set(res, "serve.occupancy_mean", occ, "")
	set(res, "serve.useful_frac", float64(after.Requests-before.Requests)/rowsExec, "")
	st := srv.Stats()
	set(res, "serve.rejected", float64(st.Rejected), "")
	set(res, "serve.expired", float64(st.Expired), "")
	set(res, "serve.shed", float64(st.Shed), "")
	var wait, exec []float64
	for _, tr := range hiTraces {
		for _, sp := range tr.Spans {
			switch sp.Name {
			case "batch-wait":
				wait = append(wait, ms(sp.Duration))
			case "device-execute":
				exec = append(exec, ms(sp.Duration))
			}
		}
	}
	set(res, "serve.queue_wait_ms_p50", bench.Percentile(wait, 0.5), "")
	set(res, "serve.queue_wait_ms_p99", bench.Percentile(wait, 0.99), "")
	set(res, "serve.execute_ms_p50", bench.Percentile(exec, 0.5), "")
	set(res, "serve.execute_ms_p99", bench.Percentile(exec, 0.99), "")

	mean := max(1, int(math.Round(occ)))
	shapeReplays(e, res, model.Kern, rowsOf(pool, mean), model.X, model.Alpha,
		mat.NewDense(mean, imnCenters), mat.NewDense(mean, model.Alpha.Cols))
	predictReplays(e, res, model, pool)
	return nil
}

// growing reports a backlog that grew over a phase: the last quarter of
// its requests waited more than twice as long, plus a millisecond, as the
// first quarter.
func growing(outs []bench.Outcome) bool {
	if len(outs) < 8 {
		return false
	}
	q := len(outs) / 4
	first := bench.Median(bench.LatenciesMs(outs[:q]))
	last := bench.Median(bench.LatenciesMs(outs[len(outs)-q:]))
	return last > 2*first+1
}
