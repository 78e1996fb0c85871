// Package slo evaluates declarative service-level objectives against the
// telemetry the rest of the system already emits — the obs.Registry's
// counters and histograms and the obs.EventLog's wide events — and drives
// Google-SRE-style multi-window burn-rate alerting from them.
//
// The evaluator POLLS: once per Resolution it samples cumulative counter
// and histogram values, converts them to per-tick good/bad deltas, and
// folds the deltas into a lock-free multi-resolution sliding window (a
// fine ring of per-second buckets covering the fast window, a coarse ring
// covering the slow window). The serving and training hot paths are
// untouched — no new locks, no new instrumentation; the cost of SLO
// evaluation is one reader-side pass per tick, measurable via EvalCost.
//
// Alerting follows the SRE workbook's two-rule shape: a fast rule
// (burn ≥ 14.4 over the fast window AND its short confirmation window)
// that pages, and a slow rule (burn ≥ 6 over the slow window AND its
// confirmation window) that warns. Both rules carry hysteresis — once
// active, a rule stays active until its confirmation window's burn drops
// below threshold × 0.8 — so a flapping input cannot flap the alert
// state. Every ok|warn|page transition is emitted as a wide slo.state
// event, and a warn→page transition triggers the armed
// obs.FlightRecorder, so each page ships with its diagnosis bundle.
package slo

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"eigenpro/internal/obs"
)

// Kind selects what an Objective measures.
type Kind string

// Objective kinds.
const (
	// Availability measures the non-ok outcome ratio over served
	// requests: good = completed predictions, bad = rejected + expired +
	// abandoned + shed, polled from the serving counters.
	Availability Kind = "availability"
	// Latency measures the fraction of requests completing under
	// LatencyP99, from the serving latency histogram's bucket deltas.
	Latency Kind = "latency"
	// TrainingProgress measures per-job training health from train.epoch
	// wide events: an epoch is bad when its wall time stretches beyond
	// MaxEpochStretch × the job's smoothed epoch time, or its validation
	// error regresses past the job's best by ValErrorMargin.
	TrainingProgress Kind = "training_progress"
)

// Serving metric names the default objectives poll. Literal duplicates of
// the constants in internal/serve/stats.go (importing serve here would
// cycle: serve carries an *slo.Evaluator in its Config); a mismatch shows
// up immediately as an objective that never observes traffic.
const (
	defaultGoodMetric    = "eigenpro_serve_requests_total"
	defaultLatencyMetric = "eigenpro_serve_latency_seconds"
)

// defaultBadMetrics are the serving failure counters (same caveat).
var defaultBadMetrics = []string{
	"eigenpro_serve_rejected_total",
	"eigenpro_serve_expired_total",
	"eigenpro_serve_abandoned_total",
	"eigenpro_serve_shed_total",
}

// SRE-workbook burn-rate thresholds and the hysteresis exit factor.
const (
	// FastBurn pages: at this burn rate a Window-long error budget is
	// exhausted in Window/14.4.
	FastBurn = 14.4
	// SlowBurn warns: sustained budget spend worth looking at.
	SlowBurn = 6.0
	// hysteresisExit deactivates a rule only when its confirmation
	// window's burn drops below threshold × this factor.
	hysteresisExit = 0.8
)

// Objective declares one SLO. Zero optional fields select defaults.
type Objective struct {
	// Name identifies the objective in gauges, events, and /debug/slo;
	// empty defaults to the Kind.
	Name string `json:"name"`
	// Kind selects the measurement (Availability, Latency,
	// TrainingProgress).
	Kind Kind `json:"kind"`
	// Target is the required good fraction, in (0, 1); 0 defaults to
	// 0.99.
	Target float64 `json:"target"`

	// LatencyP99 is the Latency objective's threshold: a request
	// completing within it is good. 0 defaults to 250ms.
	LatencyP99 time.Duration `json:"latency_p99_ns,omitempty"`

	// GoodMetric, BadMetrics, and LatencyMetric override the polled
	// series (defaults are the serving metrics above) — the hook tests
	// and non-serve deployments use.
	GoodMetric    string   `json:"-"`
	BadMetrics    []string `json:"-"`
	LatencyMetric string   `json:"-"`

	// MaxEpochStretch flags a training epoch bad when its wall time
	// exceeds this multiple of the job's smoothed epoch time (default 2).
	MaxEpochStretch float64 `json:"max_epoch_stretch,omitempty"`
	// ValErrorMargin flags an epoch bad when its validation error
	// exceeds the job's best seen plus this margin (default 0.02).
	ValErrorMargin float64 `json:"val_error_margin,omitempty"`
}

// Config configures New.
type Config struct {
	// Objectives to evaluate; at least one is required.
	Objectives []Objective
	// Window is the fast-rule (mid) burn window; the slow window is 6 ×
	// Window and the confirmation windows are Window/12 and Window/2.
	// Default 5m.
	Window time.Duration
	// Resolution is the evaluation period and the fine bucket width;
	// default 1s (sub-second is allowed, for tests and benchmarks).
	Resolution time.Duration
	// PageAfter is how long the fast rule must stay active before warn
	// escalates to page — the pause that makes the ok→warn→page
	// progression observable and absorbs one-tick spikes. Default
	// Window/20, floored at 2 × Resolution.
	PageAfter time.Duration

	// Source is the registry the counter/histogram objectives poll.
	Source *obs.Registry
	// Events supplies train.epoch records (via a sequence cursor) and
	// receives slo.state transition events; nil disables both.
	Events *obs.EventLog
	// Metrics is where the eigenpro_slo_* gauges register; nil defaults
	// to Source.
	Metrics *obs.Registry
	// Flight, when non-nil, is triggered on each warn→page transition.
	Flight *obs.FlightRecorder

	// Now overrides the clock (tests); nil means time.Now.
	Now func() time.Time
	// Manual suppresses the background evaluation goroutine; the caller
	// drives Tick explicitly (tests, benchmarks).
	Manual bool
	// HistoryCap bounds the retained transition history; 0 defaults
	// to 64.
	HistoryCap int
}

// State is an objective's alert state.
type State int

// Alert states, ordered by severity.
const (
	StateOK State = iota
	StateWarn
	StatePage
)

// String returns the state's lowercase name.
func (s State) String() string {
	switch s {
	case StateWarn:
		return "warn"
	case StatePage:
		return "page"
	default:
		return "ok"
	}
}

// jobProgress tracks one training job's health baseline.
type jobProgress struct {
	ewmaWall float64 // smoothed epoch wall seconds
	epochs   int
	bestVal  float64
	haveVal  bool
	lastSeen time.Time
}

// objective is one Objective's runtime state. All mutable fields are
// guarded by the Evaluator's mutex; the accumulator is internally
// lock-free.
type objective struct {
	obj Objective
	acc *accumulator

	// Poller cursors: previous cumulative values, so each tick feeds only
	// the delta into the window.
	prevGood, prevBad float64
	prevHist          obs.HistogramSnapshot
	havePrev          bool
	jobs              map[string]*jobProgress

	// Rule activations (with hysteresis) and the page-escalation timer.
	fastActive, slowActive bool
	fastSince              time.Time

	state State
	since time.Time

	// Last computed burn rates, for gauges and /debug/slo.
	burnFast, burnFastShort float64
	burnSlow, burnSlowShort float64
	budget                  float64
	good, bad               uint64

	gBurnFast, gBurnSlow, gBudget, gState *obs.Gauge
	transitions                           *obs.Counter
}

// Evaluator evaluates a set of objectives on a fixed cadence. Create with
// New; a nil *Evaluator is valid everywhere and reports every objective
// healthy, so wiring can pass one through unconditionally.
type Evaluator struct {
	cfg     Config
	now     func() time.Time
	windows struct{ shortFast, fast, shortSlow, slow time.Duration }

	mu      sync.Mutex
	objs    []*objective
	cursor  uint64 // train.epoch event cursor (EventLog sequence)
	history []Transition

	paging    atomic.Int64 // count of objectives in StatePage
	ticks     atomic.Uint64
	evalNanos atomic.Int64

	evals    *obs.Counter
	evalCost *obs.Counter
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// New validates cfg, registers the eigenpro_slo_* gauges, and (unless
// cfg.Manual) starts the evaluation goroutine. Close releases it.
func New(cfg Config) (*Evaluator, error) {
	if len(cfg.Objectives) == 0 {
		return nil, fmt.Errorf("slo: no objectives")
	}
	if cfg.Window <= 0 {
		cfg.Window = 5 * time.Minute
	}
	if cfg.Resolution <= 0 {
		cfg.Resolution = time.Second
	}
	if cfg.PageAfter <= 0 {
		cfg.PageAfter = cfg.Window / 20
	}
	if min := 2 * cfg.Resolution; cfg.PageAfter < min {
		cfg.PageAfter = min
	}
	if cfg.Metrics == nil {
		cfg.Metrics = cfg.Source
	}
	if cfg.HistoryCap <= 0 {
		cfg.HistoryCap = 64
	}
	e := &Evaluator{cfg: cfg, now: cfg.Now}
	if e.now == nil {
		e.now = time.Now
	}
	e.windows.fast = cfg.Window
	e.windows.shortFast = cfg.Window / 12
	if e.windows.shortFast < cfg.Resolution {
		e.windows.shortFast = cfg.Resolution
	}
	e.windows.slow = 6 * cfg.Window
	e.windows.shortSlow = cfg.Window / 2

	names := map[string]bool{}
	for _, o := range cfg.Objectives {
		if o.Name == "" {
			o.Name = string(o.Kind)
		}
		switch o.Kind {
		case Availability, Latency, TrainingProgress:
		default:
			return nil, fmt.Errorf("slo: objective %q has unknown kind %q", o.Name, o.Kind)
		}
		if o.Target == 0 {
			o.Target = 0.99
		}
		if o.Target <= 0 || o.Target >= 1 {
			return nil, fmt.Errorf("slo: objective %q target %v outside (0, 1)", o.Name, o.Target)
		}
		if names[o.Name] {
			return nil, fmt.Errorf("slo: duplicate objective name %q", o.Name)
		}
		names[o.Name] = true
		if o.LatencyP99 <= 0 {
			o.LatencyP99 = 250 * time.Millisecond
		}
		if o.GoodMetric == "" {
			o.GoodMetric = defaultGoodMetric
		}
		if len(o.BadMetrics) == 0 {
			o.BadMetrics = defaultBadMetrics
		}
		if o.LatencyMetric == "" {
			o.LatencyMetric = defaultLatencyMetric
		}
		if o.MaxEpochStretch <= 1 {
			o.MaxEpochStretch = 2
		}
		if o.ValErrorMargin <= 0 {
			o.ValErrorMargin = 0.02
		}
		st := &objective{
			obj:    o,
			acc:    newAccumulator(cfg.Resolution, e.windows.fast, e.windows.slow),
			jobs:   map[string]*jobProgress{},
			budget: 1,
			since:  e.now(),
		}
		if m := cfg.Metrics; m != nil {
			lbl := obs.L("objective", o.Name)
			st.gBurnFast = m.Gauge("eigenpro_slo_burn_rate",
				"Error-budget burn rate per alert rule (1 = spending exactly the budget).",
				lbl, obs.L("rule", "fast"))
			st.gBurnSlow = m.Gauge("eigenpro_slo_burn_rate",
				"Error-budget burn rate per alert rule (1 = spending exactly the budget).",
				lbl, obs.L("rule", "slow"))
			st.gBudget = m.Gauge("eigenpro_slo_error_budget_remaining",
				"Fraction of the slow-window error budget left (1 = untouched, negative = overspent).",
				lbl)
			st.gBudget.Set(1)
			st.gState = m.Gauge("eigenpro_slo_state",
				"Objective alert state: 0 ok, 1 warn, 2 page.", lbl)
			st.transitions = m.Counter("eigenpro_slo_transitions_total",
				"SLO alert-state transitions.", lbl)
		}
		e.objs = append(e.objs, st)
	}
	if cfg.Events != nil {
		// Start the cursor at the log's current head: pre-existing epochs
		// belong to history, not to this evaluator's windows.
		e.cursor = cfg.Events.LastSeq()
	}
	if m := cfg.Metrics; m != nil {
		e.evals = m.Counter("eigenpro_slo_evaluations_total", "SLO evaluation ticks.")
		e.evalCost = m.Counter("eigenpro_slo_evaluation_seconds_total",
			"Wall time spent evaluating SLOs.")
	}
	if !cfg.Manual {
		e.stop = make(chan struct{})
		e.done = make(chan struct{})
		go e.run()
	}
	return e, nil
}

// run is the background evaluation loop.
func (e *Evaluator) run() {
	defer close(e.done)
	t := time.NewTicker(e.cfg.Resolution)
	defer t.Stop()
	for {
		select {
		case <-e.stop:
			return
		case now := <-t.C:
			e.Tick(now)
		}
	}
}

// Close stops the background loop (no-op for Manual or nil evaluators).
func (e *Evaluator) Close() {
	if e == nil || e.stop == nil {
		return
	}
	e.stopOnce.Do(func() { close(e.stop) })
	<-e.done
}

// Window returns the configured fast-rule window (0 for nil).
func (e *Evaluator) Window() time.Duration {
	if e == nil {
		return 0
	}
	return e.cfg.Window
}

// Flight returns the recorder armed by Config.Flight — the one whose
// snapshots GET /debug/flight serves — or nil (also for a nil evaluator).
func (e *Evaluator) Flight() *obs.FlightRecorder {
	if e == nil {
		return nil
	}
	return e.cfg.Flight
}

// Paging reports whether any objective is currently in StatePage — the
// signal /readyz degrades on.
func (e *Evaluator) Paging() bool {
	return e != nil && e.paging.Load() > 0
}

// Ticks returns how many evaluation passes have run.
func (e *Evaluator) Ticks() uint64 {
	if e == nil {
		return 0
	}
	return e.ticks.Load()
}

// EvalCost returns the cumulative wall time spent inside Tick — the
// observability-overhead number the bench study reports per tick.
func (e *Evaluator) EvalCost() time.Duration {
	if e == nil {
		return 0
	}
	return time.Duration(e.evalNanos.Load())
}

// Tick runs one evaluation pass at the given instant (zero means now).
// Safe to call concurrently with Status and with itself, though the
// background loop is normally the only caller.
func (e *Evaluator) Tick(now time.Time) {
	if e == nil {
		return
	}
	if now.IsZero() {
		now = e.now()
	}
	start := time.Now()
	e.mu.Lock()
	epochs := e.drainEpochs()
	for _, o := range e.objs {
		e.observe(o, now, epochs)
		e.evaluate(o, now)
	}
	e.mu.Unlock()
	d := time.Since(start)
	e.ticks.Add(1)
	e.evalNanos.Add(int64(d))
	if e.evals != nil {
		e.evals.Inc()
		e.evalCost.Add(d.Seconds())
	}
}

// drainEpochs reads train.epoch events emitted since the last tick,
// oldest first. The log's request sampler never governs epoch events,
// so none is left out from under the cursor.
func (e *Evaluator) drainEpochs() []obs.Event {
	if e.cfg.Events == nil {
		return nil
	}
	hasTraining := false
	for _, o := range e.objs {
		if o.obj.Kind == TrainingProgress {
			hasTraining = true
			break
		}
	}
	if !hasTraining {
		return nil
	}
	evs := e.cfg.Events.Query(obs.EventQuery{Kind: obs.KindTrainEpoch, SinceSeq: e.cursor})
	for _, ev := range evs {
		if ev.Seq > e.cursor {
			e.cursor = ev.Seq
		}
	}
	// Query returns newest first; baselines must update oldest first.
	for i, j := 0, len(evs)-1; i < j; i, j = i+1, j-1 {
		evs[i], evs[j] = evs[j], evs[i]
	}
	return evs
}

// observe polls the objective's source and folds this tick's good/bad
// delta into its sliding window.
func (e *Evaluator) observe(o *objective, now time.Time, epochs []obs.Event) {
	switch o.obj.Kind {
	case Availability:
		e.observeAvailability(o, now)
	case Latency:
		e.observeLatency(o, now)
	case TrainingProgress:
		e.observeTraining(o, now, epochs)
	}
}

func (e *Evaluator) observeAvailability(o *objective, now time.Time) {
	reg := e.cfg.Source
	if reg == nil {
		return
	}
	good, ok := reg.Value(o.obj.GoodMetric)
	if !ok {
		return
	}
	var bad float64
	for _, m := range o.obj.BadMetrics {
		if v, ok := reg.Value(m); ok {
			bad += v
		}
	}
	if !o.havePrev {
		o.prevGood, o.prevBad, o.havePrev = good, bad, true
		return
	}
	dg, db := good-o.prevGood, bad-o.prevBad
	o.prevGood, o.prevBad = good, bad
	if dg < 0 {
		dg = 0 // counter reset (registry swapped); restart the baseline
	}
	if db < 0 {
		db = 0
	}
	o.acc.add(now, uint64(dg), uint64(db))
}

func (e *Evaluator) observeLatency(o *objective, now time.Time) {
	reg := e.cfg.Source
	if reg == nil {
		return
	}
	snap, ok := reg.SampleHistogram(o.obj.LatencyMetric)
	if !ok {
		return
	}
	prev := o.prevHist
	o.prevHist = snap
	if !o.havePrev || len(prev.Counts) != len(snap.Counts) {
		o.havePrev = true
		return
	}
	threshold := o.obj.LatencyP99.Seconds()
	var good, bad uint64
	for i, c := range snap.Counts {
		d := c - prev.Counts[i]
		if c < prev.Counts[i] {
			d = 0
		}
		if i < len(snap.Bounds) && snap.Bounds[i] <= threshold {
			good += d
		} else {
			bad += d
		}
	}
	o.acc.add(now, good, bad)
}

func (e *Evaluator) observeTraining(o *objective, now time.Time, epochs []obs.Event) {
	var good, bad uint64
	for i := range epochs {
		ev := &epochs[i]
		jp := o.jobs[ev.Job]
		if jp == nil {
			jp = &jobProgress{}
			o.jobs[ev.Job] = jp
		}
		jp.lastSeen = now
		wall := ev.Wall.Seconds()
		healthy := true
		// Need a few epochs of baseline before a stretch is meaningful.
		if jp.epochs >= 3 && jp.ewmaWall > 0 && wall > o.obj.MaxEpochStretch*jp.ewmaWall {
			healthy = false
		}
		if jp.haveVal && ev.ValError > jp.bestVal+o.obj.ValErrorMargin {
			healthy = false
		}
		if jp.epochs == 0 {
			jp.ewmaWall = wall
		} else {
			jp.ewmaWall = 0.7*jp.ewmaWall + 0.3*wall
		}
		jp.epochs++
		if ev.ValError > 0 && (!jp.haveVal || ev.ValError < jp.bestVal) {
			jp.bestVal, jp.haveVal = ev.ValError, true
		}
		if healthy {
			good++
		} else {
			bad++
		}
	}
	o.acc.add(now, good, bad)
	// Evict jobs idle past the slow window: their baselines are stale and
	// the map must not grow with job churn.
	for name, jp := range o.jobs {
		if now.Sub(jp.lastSeen) > e.windows.slow {
			delete(o.jobs, name)
		}
	}
}

// burn returns the error-budget burn rate over the window ending at now:
// (bad ratio) / (1 - target). An empty window burns nothing.
func (o *objective) burn(now time.Time, window time.Duration) float64 {
	good, bad := o.acc.sum(now, window)
	total := good + bad
	if total == 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / (1 - o.obj.Target)
}

// evaluate recomputes the objective's burn rates and advances its alert
// state machine, emitting transition events and arming the flight
// recorder on escalation to page.
func (e *Evaluator) evaluate(o *objective, now time.Time) {
	o.burnFast = o.burn(now, e.windows.fast)
	o.burnFastShort = o.burn(now, e.windows.shortFast)
	o.burnSlow = o.burn(now, e.windows.slow)
	o.burnSlowShort = o.burn(now, e.windows.shortSlow)
	o.good, o.bad = o.acc.sum(now, e.windows.slow)
	if total := o.good + o.bad; total > 0 {
		badRatio := float64(o.bad) / float64(total)
		o.budget = 1 - badRatio/(1-o.obj.Target)
	} else {
		o.budget = 1
	}

	// Rule activation with hysteresis: enter on both windows breaching,
	// leave only when the short (confirmation) window clears well below
	// the threshold — the short window recovers first, so recovery is
	// prompt without flapping.
	if o.fastActive {
		o.fastActive = o.burnFastShort >= FastBurn*hysteresisExit
	} else {
		o.fastActive = o.burnFast >= FastBurn && o.burnFastShort >= FastBurn
	}
	if o.slowActive {
		o.slowActive = o.burnSlowShort >= SlowBurn*hysteresisExit
	} else {
		o.slowActive = o.burnSlow >= SlowBurn && o.burnSlowShort >= SlowBurn
	}
	if o.fastActive {
		if o.fastSince.IsZero() {
			o.fastSince = now
		}
	} else {
		o.fastSince = time.Time{}
	}

	next := o.state
	switch o.state {
	case StateOK:
		if o.fastActive || o.slowActive {
			next = StateWarn
		}
	case StateWarn:
		switch {
		case o.fastActive && now.Sub(o.fastSince) >= e.cfg.PageAfter:
			next = StatePage
		case !o.fastActive && !o.slowActive:
			next = StateOK
		}
	case StatePage:
		if !o.fastActive {
			if o.slowActive {
				next = StateWarn
			} else {
				next = StateOK
			}
		}
	}
	if next != o.state {
		e.transition(o, now, next)
	}
	if o.gBurnFast != nil {
		o.gBurnFast.Set(o.burnFast)
		o.gBurnSlow.Set(o.burnSlow)
		o.gBudget.Set(o.budget)
		o.gState.Set(float64(o.state))
	}
}

// transition moves the objective to next, maintaining the paging count,
// the bounded history, the transition event, and — on escalation to page
// — the flight recorder.
func (e *Evaluator) transition(o *objective, now time.Time, next State) {
	prev := o.state
	o.state = next
	o.since = now
	if prev == StatePage {
		e.paging.Add(-1)
	}
	if next == StatePage {
		e.paging.Add(1)
	}
	if o.transitions != nil {
		o.transitions.Inc()
	}
	tr := Transition{
		Objective: o.obj.Name,
		From:      prev.String(),
		To:        next.String(),
		Time:      now,
		BurnFast:  o.burnFast,
		BurnSlow:  o.burnSlow,
	}
	e.history = append(e.history, tr)
	if len(e.history) > e.cfg.HistoryCap {
		e.history = e.history[len(e.history)-e.cfg.HistoryCap:]
	}
	level := obs.LevelInfo
	switch next {
	case StateWarn:
		level = obs.LevelWarn
	case StatePage:
		level = obs.LevelError
	}
	e.cfg.Events.Emit(obs.Event{
		Time:      now,
		Level:     level,
		Kind:      obs.KindSLOState,
		Objective: o.obj.Name,
		Outcome:   next.String(),
	})
	if next == StatePage {
		if dir, ok := e.cfg.Flight.Capture(o.obj.Name, map[string]any{
			"burn_fast": o.burnFast,
			"burn_slow": o.burnSlow,
			"from":      prev.String(),
			"to":        next.String(),
		}); ok {
			e.history[len(e.history)-1].Snapshot = dir
		}
	}
}

// Transition is one alert-state change, retained in the bounded history.
type Transition struct {
	Objective string    `json:"objective"`
	From      string    `json:"from"`
	To        string    `json:"to"`
	Time      time.Time `json:"time"`
	BurnFast  float64   `json:"burn_fast"`
	BurnSlow  float64   `json:"burn_slow"`
	// Snapshot is the flight-recorder directory this transition captured,
	// when it escalated to page and the recorder accepted the trigger.
	Snapshot string `json:"snapshot,omitempty"`
}

// ObjectiveStatus is one objective's current standing, as served by
// /debug/slo.
type ObjectiveStatus struct {
	Name   string  `json:"name"`
	Kind   Kind    `json:"kind"`
	Target float64 `json:"target"`
	// LatencyP99 is the latency objective's good/bad threshold.
	LatencyP99 time.Duration `json:"latency_p99_ns,omitempty"`
	// State is the alert state ("ok", "warn", "page"); Since is when it
	// was entered.
	State string    `json:"state"`
	Since time.Time `json:"since"`
	// BurnFast/BurnSlow are the burn rates over the fast and slow
	// windows; the Short variants are the confirmation windows.
	BurnFast      float64 `json:"burn_fast"`
	BurnFastShort float64 `json:"burn_fast_short"`
	BurnSlow      float64 `json:"burn_slow"`
	BurnSlowShort float64 `json:"burn_slow_short"`
	// ErrorBudgetRemaining is the unspent fraction of the slow-window
	// budget (negative = overspent).
	ErrorBudgetRemaining float64 `json:"error_budget_remaining"`
	// Good/Bad are the slow-window observation counts.
	Good uint64 `json:"good"`
	Bad  uint64 `json:"bad"`
	// Window is the objective's fast-rule window.
	Window time.Duration `json:"window_ns"`
}

// Status is the full /debug/slo payload for one evaluator.
type Status struct {
	Objectives []ObjectiveStatus `json:"objectives"`
	// History is the bounded alert-transition log, oldest first.
	History []Transition `json:"history"`
	// Ticks counts evaluation passes; EvalCost is their cumulative wall
	// time (the per-tick division is the overhead number).
	Ticks    uint64        `json:"ticks"`
	EvalCost time.Duration `json:"eval_cost_ns"`
}

// Status snapshots every objective (empty for a nil evaluator).
func (e *Evaluator) Status() Status {
	if e == nil {
		return Status{}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	st := Status{
		Ticks:    e.ticks.Load(),
		EvalCost: time.Duration(e.evalNanos.Load()),
		History:  append([]Transition(nil), e.history...),
	}
	for _, o := range e.objs {
		os := ObjectiveStatus{
			Name:                 o.obj.Name,
			Kind:                 o.obj.Kind,
			Target:               o.obj.Target,
			State:                o.state.String(),
			Since:                o.since,
			BurnFast:             o.burnFast,
			BurnFastShort:        o.burnFastShort,
			BurnSlow:             o.burnSlow,
			BurnSlowShort:        o.burnSlowShort,
			ErrorBudgetRemaining: o.budget,
			Good:                 o.good,
			Bad:                  o.bad,
			Window:               e.cfg.Window,
		}
		if o.obj.Kind == Latency {
			os.LatencyP99 = o.obj.LatencyP99
		}
		st.Objectives = append(st.Objectives, os)
	}
	return st
}
