package bench

import (
	"context"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"eigenpro/internal/core"
	"eigenpro/internal/data"
	"eigenpro/internal/obs"
	"eigenpro/internal/obs/slo"
	"eigenpro/internal/serve"
)

// ObsOverheadPoint is one measured cell of the observability-overhead
// study: the serving hot path driven with instrumentation minimized or
// maximized.
type ObsOverheadPoint struct {
	// Instrumented is false for the baseline (no request recorded, no
	// concurrent scrapes) and true for the worst case (every request
	// recorded with a trace ID, a latency exemplar, and a wide event into
	// a log with a warn-level sink, /metrics rendered continuously in
	// OpenMetrics form during the load).
	Instrumented bool
	// Requests is the number of completed predictions.
	Requests int64
	// WallThroughput is requests per wall-clock second.
	WallThroughput float64
	// Scrapes counts /metrics expositions rendered during the run (0 for
	// the baseline).
	Scrapes int64
	// EventsEmitted and EventsDropped count the wide events kept in (and
	// sampled out of) the event ring: the baseline keeps none and samples
	// every request out, the instrumented mode keeps one per request.
	EventsEmitted, EventsDropped uint64
	// SLOTicks counts burn-rate evaluation passes run during the load and
	// SLOEvalCost their cumulative wall time (0 for the baseline, whose
	// evaluator is absent); SLOEvalCost/SLOTicks is the per-tick cost of
	// the judgment layer.
	SLOTicks    uint64
	SLOEvalCost time.Duration
}

// runObsPoint drives the serving hot path once. Instrumented mode records
// every request (a trace ID, a per-bucket latency exemplar, and a wide
// event into the ring), as `eigenpro serve` does at its default
// -log-every 1, with a JSON-lines sink attached at warn level (mirroring
// every ok event too would measure JSON encoding, not the request path),
// renders the OpenMetrics exposition (exemplars included) every
// millisecond for the duration — orders of magnitude more often than any
// real scraper, but still paced: an unpaced busy loop would measure CPU
// theft by the scraper goroutine, not instrumentation cost on the request
// path — and runs a live SLO burn-rate evaluator (availability + latency
// objectives polling the serving registry every 10ms, 100x a production
// cadence) with an armed flight recorder behind it. The baseline records
// no ok request (the metric counters themselves are always on: they are
// single atomics and cannot be unwired).
func runObsPoint(m *core.Model, clients, perClient int, instrumented bool) (ObsOverheadPoint, error) {
	cfg := serve.Config{
		QueueDepth: clients*perClient + 1,
		Workers:    1,
		MaxLatency: time.Millisecond,
		Timeout:    -1,
		Events:     obs.NewEventLog(0),
	}
	if instrumented {
		cfg.Events.SetSampleEvery(1)
		cfg.Events.SetSink(io.Discard, obs.LevelWarn)
	} else {
		cfg.Events.SetSampleEvery(-1)
	}
	s := serve.New(cfg)
	defer s.Close()
	if err := s.Register("m", m); err != nil {
		return ObsOverheadPoint{}, err
	}

	// The judgment layer rides along in instrumented mode: objectives are
	// generous enough that healthy serving never breaches them, so the
	// recorder stays armed (the trigger path is two atomic loads inside the
	// evaluator, zero on the request path) without a capture perturbing the
	// measurement mid-run.
	var ev *slo.Evaluator
	if instrumented {
		dir, err := os.MkdirTemp("", "eigenpro-bench-flight")
		if err != nil {
			return ObsOverheadPoint{}, err
		}
		defer os.RemoveAll(dir)
		fr, err := obs.NewFlightRecorder(obs.FlightConfig{
			Dir:        dir,
			CPUProfile: -1, // a capture mid-bench must not sleep 5s inside the measurement
			Events:     cfg.Events,
			Registries: []*obs.Registry{s.Metrics()},
		})
		if err != nil {
			return ObsOverheadPoint{}, err
		}
		ev, err = slo.New(slo.Config{
			Objectives: []slo.Objective{
				{Kind: slo.Availability, Target: 0.999},
				{Kind: slo.Latency, Target: 0.99, LatencyP99: time.Minute},
			},
			Window:     5 * time.Second,
			Resolution: 10 * time.Millisecond,
			Source:     s.Metrics(),
			Events:     cfg.Events,
			Flight:     fr,
		})
		if err != nil {
			return ObsOverheadPoint{}, err
		}
		defer ev.Close()
	}

	var scrapes int64
	stopScrape := make(chan struct{})
	var scrapeWG sync.WaitGroup
	if instrumented {
		scrapeWG.Add(1)
		go func() {
			defer scrapeWG.Done()
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopScrape:
					return
				case <-tick.C:
					s.Metrics().WriteOpenMetrics(io.Discard)
					scrapes++
				}
			}
		}()
	}

	queries := data.MNISTLike(256, 53).X
	start := time.Now()
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				row := queries.RowView((c*perClient + i) % queries.Rows)
				if _, err := s.Predict(context.Background(), "m", row); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	close(stopScrape)
	scrapeWG.Wait()
	for _, err := range errs {
		if err != nil {
			return ObsOverheadPoint{}, err
		}
	}
	st := s.Stats()
	p := ObsOverheadPoint{
		Instrumented:  instrumented,
		Requests:      st.Requests,
		Scrapes:       scrapes,
		EventsEmitted: cfg.Events.Emitted(),
		EventsDropped: cfg.Events.Dropped(),
		SLOTicks:      ev.Ticks(),
		SLOEvalCost:   ev.EvalCost(),
	}
	if sec := wall.Seconds(); sec > 0 {
		p.WallThroughput = float64(st.Requests) / sec
	}
	return p, nil
}

// ObsOverheadStudy measures the serving hot path with instrumentation
// minimized vs maximized. Points come in (baseline, instrumented) pairs;
// attempts controls how many pairs are measured (overhead this small is
// noise-dominated, so consumers should take the best pair).
func ObsOverheadStudy(scale Scale, attempts int) ([]ObsOverheadPoint, error) {
	centers := scale.pick(300, 800, 2000)
	perClient := scale.pick(12, 24, 48)
	clients := 64
	m := servingModel(centers)
	var out []ObsOverheadPoint
	for a := 0; a < attempts; a++ {
		for _, instrumented := range []bool{false, true} {
			p, err := runObsPoint(m, clients, perClient, instrumented)
			if err != nil {
				return nil, err
			}
			out = append(out, p)
		}
	}
	return out, nil
}

// OverheadFraction returns the relative throughput cost of instrumentation
// for a (baseline, instrumented) pair: 0.05 means the instrumented run was
// 5% slower. Negative values (noise) mean it measured faster.
func OverheadFraction(base, inst ObsOverheadPoint) float64 {
	if base.WallThroughput <= 0 {
		return 0
	}
	return (base.WallThroughput - inst.WallThroughput) / base.WallThroughput
}

// ObsOverhead renders ObsOverheadStudy as a report: the serving hot path
// with tracing and event logging off vs every request traced (with
// latency exemplars), a wide event per request, continuous OpenMetrics
// scraping, and a live SLO burn-rate evaluator with an armed flight
// recorder.
func ObsOverhead(scale Scale) (*Report, error) {
	points, err := ObsOverheadStudy(scale, 3)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:     "obs-overhead",
		Title:  "observability overhead on the serving hot path (tracing + exemplars + wide events + continuous OpenMetrics scraping + SLO evaluation with an armed flight recorder)",
		Header: []string{"attempt", "mode", "requests", "wall req/s", "scrapes", "events", "dropped", "slo eval/tick", "overhead"},
	}
	best := 1.0
	for i := 0; i+1 < len(points); i += 2 {
		base, inst := points[i], points[i+1]
		ov := OverheadFraction(base, inst)
		if ov < best {
			best = ov
		}
		rep.AddRow(fmt.Sprint(i/2+1), "baseline", fmt.Sprint(base.Requests),
			fmt.Sprintf("%.0f", base.WallThroughput), "0",
			fmt.Sprint(base.EventsEmitted), fmt.Sprint(base.EventsDropped), "", "")
		rep.AddRow(fmt.Sprint(i/2+1), "instrumented", fmt.Sprint(inst.Requests),
			fmt.Sprintf("%.0f", inst.WallThroughput), fmt.Sprint(inst.Scrapes),
			fmt.Sprint(inst.EventsEmitted), fmt.Sprint(inst.EventsDropped),
			fmtEvalPerTick(inst), fmtPct(ov))
	}
	rep.AddNote("best-of-%d overhead: %s (acceptance bound: < 5%%)", len(points)/2, fmtPct(best))
	rep.AddNote("baseline records no ok request (-log-every -1); counters/histograms are lock-free atomics and always on")
	rep.AddNote("instrumented mode records every request (-log-every 1, the serve default); dropped counts the sampled-out")
	rep.AddNote("slo eval/tick is the wall cost of one burn-rate pass (availability + latency objectives at a 10ms cadence, 100x production)")
	return rep, nil
}

// fmtEvalPerTick renders the per-tick SLO evaluation cost of an
// instrumented point ("" when the evaluator never ticked).
func fmtEvalPerTick(p ObsOverheadPoint) string {
	if p.SLOTicks == 0 {
		return ""
	}
	return (p.SLOEvalCost / time.Duration(p.SLOTicks)).Round(100 * time.Nanosecond).String()
}
