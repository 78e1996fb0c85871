package slo

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"eigenpro/internal/obs"
)

// availFixture is a Manual availability evaluator fed by two private
// counters, so tests drive traffic and the clock explicitly.
type availFixture struct {
	reg       *obs.Registry
	good, bad *obs.Counter
	log       *obs.EventLog
	ev        *Evaluator
}

// newAvailFixture builds the fixture: Window 12s at 1s resolution gives
// shortFast = 1s (this tick's traffic alone confirms the fast rule) and
// PageAfter = 2s (two ticks of sustained fast burn escalate warn to page).
func newAvailFixture(t *testing.T, fr *obs.FlightRecorder) *availFixture {
	t.Helper()
	f := &availFixture{reg: obs.NewRegistry(), log: obs.NewEventLog(256)}
	f.good = f.reg.Counter("test_good_total", "good requests")
	f.bad = f.reg.Counter("test_bad_total", "bad requests")
	ev, err := New(Config{
		Objectives: []Objective{{
			Kind:       Availability,
			Name:       "avail",
			Target:     0.99,
			GoodMetric: "test_good_total",
			BadMetrics: []string{"test_bad_total"},
		}},
		Window:     12 * time.Second,
		Resolution: time.Second,
		Source:     f.reg,
		Events:     f.log,
		Flight:     fr,
		Manual:     true,
		Now:        func() time.Time { return at(0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	f.ev = ev
	return f
}

func (f *availFixture) state(t *testing.T) string {
	t.Helper()
	st := f.ev.Status()
	if len(st.Objectives) != 1 {
		t.Fatalf("want 1 objective, got %d", len(st.Objectives))
	}
	return st.Objectives[0].State
}

// TestHysteresisOkWarnPageOk walks the full alert lifecycle: all-bad
// traffic confirms the fast rule (warn), sustains it past PageAfter
// (page), trips the flight recorder exactly once, and all-good traffic
// recovers through warn (slow rule still burning) back to ok.
func TestHysteresisOkWarnPageOk(t *testing.T) {
	fr, err := obs.NewFlightRecorder(obs.FlightConfig{
		Dir:        t.TempDir(),
		CPUProfile: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := newAvailFixture(t, fr)
	if f.ev.Flight() != fr {
		t.Fatal("Flight() does not return the armed recorder")
	}

	f.ev.Tick(at(0)) // baseline tick seeds the poll cursor
	f.good.Add(10)
	f.ev.Tick(at(1))
	if s := f.state(t); s != "ok" {
		t.Fatalf("healthy traffic: state %q, want ok", s)
	}

	// Tick 2: 10/10 bad this second. Burn over both the fast window
	// (10 bad / 20 total / 0.01 = 50) and its 1s confirmation window
	// (100) exceed FastBurn => warn immediately.
	f.bad.Add(10)
	f.ev.Tick(at(2))
	if s := f.state(t); s != "warn" {
		t.Fatalf("after 1 bad tick: state %q, want warn", s)
	}
	// Tick 3: fast rule held 1s < PageAfter (2s) — still warn.
	f.bad.Add(10)
	f.ev.Tick(at(3))
	if s := f.state(t); s != "warn" {
		t.Fatalf("fast rule held 1s: state %q, want warn (PageAfter not reached)", s)
	}
	// Tick 4: held 2s >= PageAfter — page, readiness degrades, flight fires.
	f.bad.Add(10)
	f.ev.Tick(at(4))
	if s := f.state(t); s != "page" {
		t.Fatalf("fast rule held 2s: state %q, want page", s)
	}
	if !f.ev.Paging() {
		t.Fatal("Paging() false while an objective pages")
	}
	fr.Wait()
	if got := fr.Captures(); got != 1 {
		t.Fatalf("flight captures = %d, want exactly 1", got)
	}

	// Recovery: good-only traffic. The 1s confirmation window clears the
	// fast rule on the first good tick (page exits), but the 6s slow
	// confirmation window still holds the bad run => warn, not ok.
	f.good.Add(10)
	f.ev.Tick(at(5))
	if s := f.state(t); s != "warn" {
		t.Fatalf("first good tick: state %q, want warn (slow budget still burning)", s)
	}
	if f.ev.Paging() {
		t.Fatal("Paging() still true after page exited")
	}
	// Keep serving good traffic until the bad run rolls out of the 6s
	// confirmation window; by t=10 the slow rule clears and state is ok.
	for i := 6; i <= 10; i++ {
		f.good.Add(10)
		f.ev.Tick(at(i))
	}
	if s := f.state(t); s != "ok" {
		t.Fatalf("after recovery: state %q, want ok", s)
	}

	// The transition history tells the same story, oldest first, and the
	// page transition carries its flight-snapshot directory.
	st := f.ev.Status()
	var path []string
	for _, tr := range st.History {
		path = append(path, tr.From+">"+tr.To)
		if tr.To == "page" && tr.Snapshot == "" {
			t.Fatal("page transition has no flight snapshot attached")
		}
	}
	want := "ok>warn warn>page page>warn warn>ok"
	if got := strings.Join(path, " "); got != want {
		t.Fatalf("transition history = %q, want %q", got, want)
	}
	if _, err := os.Stat(filepath.Join(st.History[1].Snapshot, "meta.json")); err != nil {
		t.Fatalf("flight snapshot incomplete: %v", err)
	}

	// Every transition was also emitted as a wide slo.state event, at
	// escalating levels (page => error).
	evs := f.log.Query(obs.EventQuery{Kind: obs.KindSLOState})
	if len(evs) != 4 {
		t.Fatalf("want 4 slo.state events, got %d", len(evs))
	}
	for _, ev := range evs { // newest first
		if ev.Objective != "avail" {
			t.Fatalf("slo.state event missing objective: %+v", ev)
		}
	}
	if evs[2].Outcome != "page" || evs[2].Level != obs.LevelError {
		t.Fatalf("page event = %+v, want outcome page at error level", evs[2])
	}
}

// TestHysteresisNoFlapping alternates all-bad and all-good seconds: the
// fast rule enters and exits each second but never survives PageAfter, and
// the slow rule's hysteresis holds the state at warn throughout — exactly
// one transition total, no ok/warn flapping.
func TestHysteresisNoFlapping(t *testing.T) {
	f := newAvailFixture(t, nil)
	f.ev.Tick(at(0))
	for i := 1; i <= 20; i++ {
		if i%2 == 1 {
			f.bad.Add(10)
		} else {
			f.good.Add(10)
		}
		f.ev.Tick(at(i))
		if s := f.state(t); s == "page" {
			t.Fatalf("flapping input paged at tick %d", i)
		}
	}
	st := f.ev.Status()
	if len(st.History) != 1 || st.History[0].To != "warn" {
		t.Fatalf("flapping produced %d transitions (%+v), want exactly ok>warn", len(st.History), st.History)
	}
	if s := f.state(t); s != "warn" {
		t.Fatalf("state under flapping input = %q, want warn held by hysteresis", s)
	}
}

// TestEmptyWindowNoTraffic checks the division guards: an evaluator over
// absent metrics and zero traffic stays ok with a full error budget.
func TestEmptyWindowNoTraffic(t *testing.T) {
	f := newAvailFixture(t, nil)
	for i := 0; i < 5; i++ {
		f.ev.Tick(at(i))
	}
	st := f.ev.Status().Objectives[0]
	if st.State != "ok" || st.ErrorBudgetRemaining != 1 || st.BurnFast != 0 {
		t.Fatalf("no-traffic status = %+v, want ok with full budget", st)
	}
	// Same for an objective whose metrics never registered at all.
	ev, err := New(Config{
		Objectives: []Objective{{Kind: Availability, GoodMetric: "absent_total"}},
		Window:     12 * time.Second,
		Resolution: time.Second,
		Source:     obs.NewRegistry(),
		Manual:     true,
		Now:        func() time.Time { return at(0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	ev.Tick(at(0))
	ev.Tick(at(1))
	if st := ev.Status().Objectives[0]; st.State != "ok" || st.ErrorBudgetRemaining != 1 {
		t.Fatalf("absent-metric status = %+v, want ok with full budget", st)
	}
}

// TestLatencyObjective feeds a private histogram: observations landing in
// buckets at or under LatencyP99 are good, the rest bad, and an all-slow
// burst walks the same warn->page path as availability.
func TestLatencyObjective(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("test_latency_seconds", "latency", []float64{0.005, 0.05, 0.5})
	ev, err := New(Config{
		Objectives: []Objective{{
			Kind:          Latency,
			Name:          "lat",
			Target:        0.99,
			LatencyP99:    50 * time.Millisecond,
			LatencyMetric: "test_latency_seconds",
		}},
		Window:     12 * time.Second,
		Resolution: time.Second,
		Source:     reg,
		Manual:     true,
		Now:        func() time.Time { return at(0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	ev.Tick(at(0)) // baseline snapshot

	// Fast requests: both the 5ms and 50ms buckets are within LatencyP99.
	for i := 0; i < 8; i++ {
		h.Observe(0.001)
	}
	h.Observe(0.04)
	ev.Tick(at(1))
	st := ev.Status().Objectives[0]
	if st.State != "ok" || st.Good != 9 || st.Bad != 0 {
		t.Fatalf("fast traffic: %+v, want ok with 9 good", st)
	}
	if st.LatencyP99 != 50*time.Millisecond {
		t.Fatalf("status LatencyP99 = %v, want 50ms", st.LatencyP99)
	}

	// Slow requests: the 0.5 bucket and +Inf overflow both breach 50ms.
	for _, v := range []float64{0.2, 0.2, 0.3, 2.0} {
		h.Observe(v)
	}
	ev.Tick(at(2))
	if s := ev.Status().Objectives[0].State; s != "warn" {
		t.Fatalf("after slow burst: state %q, want warn", s)
	}
	for i := 3; i <= 4; i++ {
		h.Observe(1.0)
		ev.Tick(at(i))
	}
	if s := ev.Status().Objectives[0].State; s != "page" {
		t.Fatalf("sustained slow traffic: state %q, want page", s)
	}
}

// TestTrainingProgressObjective drives train.epoch wide events through
// the cursor: steady epochs are good, a stretched epoch and a
// validation-error regression are bad, and epochs emitted before the
// evaluator existed are ignored.
func TestTrainingProgressObjective(t *testing.T) {
	log := obs.NewEventLog(256)
	// Pre-existing history the evaluator must not count.
	log.Emit(obs.Event{Kind: obs.KindTrainEpoch, Job: "old", Wall: time.Second})

	ev, err := New(Config{
		Objectives: []Objective{{Kind: TrainingProgress, Name: "train"}},
		Window:     12 * time.Second,
		Resolution: time.Second,
		Events:     log,
		Manual:     true,
		Now:        func() time.Time { return at(0) },
	})
	if err != nil {
		t.Fatal(err)
	}

	// Four steady epochs establish the wall-time baseline.
	for i := 0; i < 4; i++ {
		log.Emit(obs.Event{Kind: obs.KindTrainEpoch, Job: "j", Wall: time.Second})
	}
	ev.Tick(at(1))
	st := ev.Status().Objectives[0]
	if st.Good != 4 || st.Bad != 0 {
		t.Fatalf("steady epochs: good/bad = %d/%d, want 4/0", st.Good, st.Bad)
	}

	// An epoch stretched past MaxEpochStretch x the smoothed wall is bad.
	log.Emit(obs.Event{Kind: obs.KindTrainEpoch, Job: "j", Wall: 10 * time.Second})
	ev.Tick(at(2))
	if st := ev.Status().Objectives[0]; st.Bad != 1 {
		t.Fatalf("stretched epoch: bad = %d, want 1", st.Bad)
	}

	// Validation error: 0.10 sets the best; 0.14 > best + margin regresses.
	log.Emit(obs.Event{Kind: obs.KindTrainEpoch, Job: "j", Wall: time.Second, ValError: 0.10})
	ev.Tick(at(3))
	log.Emit(obs.Event{Kind: obs.KindTrainEpoch, Job: "j", Wall: time.Second, ValError: 0.14})
	ev.Tick(at(4))
	st = ev.Status().Objectives[0]
	if st.Good != 5 || st.Bad != 2 {
		t.Fatalf("after regression: good/bad = %d/%d, want 5/2", st.Good, st.Bad)
	}
}

// TestNewValidation checks New's config rejection paths.
func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no objectives", Config{}},
		{"unknown kind", Config{Objectives: []Objective{{Kind: "bogus"}}}},
		{"target out of range", Config{Objectives: []Objective{{Kind: Availability, Target: 1.5}}}},
		{"duplicate names", Config{Objectives: []Objective{
			{Kind: Availability, Name: "x"}, {Kind: Latency, Name: "x"},
		}}},
	}
	for _, c := range cases {
		if _, err := New(c.cfg); err == nil {
			t.Errorf("%s: New accepted invalid config", c.name)
		}
	}
}

// TestSLOGauges checks the eigenpro_slo_* series land in the metrics
// registry with per-objective labels.
func TestSLOGauges(t *testing.T) {
	f := newAvailFixture(t, nil)
	f.ev.Tick(at(0))
	f.good.Add(10)
	f.ev.Tick(at(1))
	var sb strings.Builder
	if err := f.reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`eigenpro_slo_error_budget_remaining{objective="avail"} 1`,
		`eigenpro_slo_state{objective="avail"} 0`,
		`eigenpro_slo_burn_rate{objective="avail",rule="fast"}`,
		"eigenpro_slo_evaluations_total 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestNilEvaluator checks the nil-receiver contract the handler wiring
// relies on.
func TestNilEvaluator(t *testing.T) {
	var ev *Evaluator
	ev.Tick(at(0))
	ev.Close()
	if ev.Paging() || ev.Ticks() != 0 || ev.EvalCost() != 0 || ev.Window() != 0 {
		t.Fatal("nil evaluator reported activity")
	}
	if st := ev.Status(); len(st.Objectives) != 0 {
		t.Fatal("nil evaluator reported objectives")
	}
	if ev.Flight() != nil {
		t.Fatal("nil evaluator reported a flight recorder")
	}
}

// TestConcurrentTickStatus races Tick, Status, Paging, and counter traffic
// under -race.
func TestConcurrentTickStatus(t *testing.T) {
	f := newAvailFixture(t, nil)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			f.good.Inc()
			if i%7 == 0 {
				f.bad.Inc()
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			f.ev.Tick(at(i % 30))
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			_ = f.ev.Status()
			_ = f.ev.Paging()
		}
	}()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	if f.ev.Ticks() != 300 {
		t.Fatalf("ticks = %d, want 300", f.ev.Ticks())
	}
}

// TestHandler checks the /debug/slo payload shape: objectives from every
// evaluator, merged history newest first, tick/cost counters, and the
// paging flag; non-GET methods are rejected and nil evaluators skipped.
func TestHandler(t *testing.T) {
	f := newAvailFixture(t, nil)
	f.ev.Tick(at(0))
	f.bad.Add(10)
	f.ev.Tick(at(1))
	h := Handler(f.ev)

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/slo", nil))
	if rr.Code != 200 {
		t.Fatalf("GET /debug/slo = %d", rr.Code)
	}
	var payload struct {
		Objectives []ObjectiveStatus `json:"objectives"`
		History    []Transition      `json:"history"`
		Ticks      uint64            `json:"ticks"`
		EvalPer    int64             `json:"eval_per_tick_ns"`
		Paging     bool              `json:"paging"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &payload); err != nil {
		t.Fatal(err)
	}
	if len(payload.Objectives) != 1 || payload.Objectives[0].Name != "avail" {
		t.Fatalf("payload objectives = %+v", payload.Objectives)
	}
	if payload.Ticks != 2 || payload.EvalPer <= 0 {
		t.Fatalf("payload ticks/eval_per_tick = %d/%d", payload.Ticks, payload.EvalPer)
	}
	if len(payload.History) != 1 || payload.History[0].To != "warn" {
		t.Fatalf("payload history = %+v", payload.History)
	}
	if payload.Paging {
		t.Fatalf("payload paging = %v, want false", payload.Paging)
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/debug/slo", nil))
	if rr.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /debug/slo = %d, want 405", rr.Code)
	}

	// A nil evaluator serves an empty, valid payload.
	rr = httptest.NewRecorder()
	Handler(nil).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/slo", nil))
	if rr.Code != 200 || !strings.Contains(rr.Body.String(), `"objectives":[]`) {
		t.Fatalf("nil handler: %d %s", rr.Code, rr.Body.String())
	}
}

// TestBackgroundLoop covers the non-Manual path: the ticker drives Tick
// until Close.
func TestBackgroundLoop(t *testing.T) {
	ev, err := New(Config{
		Objectives: []Objective{{Kind: Availability}},
		Window:     time.Second,
		Resolution: time.Millisecond,
		Source:     obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for ev.Ticks() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ev.Close()
	ev.Close() // idempotent
	if ev.Ticks() == 0 {
		t.Fatal("background loop never ticked")
	}
}
