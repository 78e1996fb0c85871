package serve

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"eigenpro/internal/obs"
	"eigenpro/internal/obs/slo"
)

// TestDrainFlushesInFlightRequests is the graceful-shutdown contract: a
// request admitted before Drain completes successfully, requests arriving
// after Drain are rejected with ErrDraining, and Drain returns only once
// the server is idle.
func TestDrainFlushesInFlightRequests(t *testing.T) {
	ev := obs.NewEventLog(64)
	s := newTestServer(t, Config{Events: ev, MaxBatch: 4, MaxLatency: 5 * time.Millisecond})
	if err := s.Register("default", slowModel(20*time.Millisecond)); err != nil {
		t.Fatal(err)
	}

	// Launch an in-flight request and give it time to be admitted.
	type result struct {
		out []float64
		err error
	}
	resCh := make(chan result, 1)
	go func() {
		out, err := s.Predict(context.Background(), "default", []float64{1, 2})
		resCh <- result{out, err}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for s.pending.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	if err := s.Drain(5 * time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if !s.Draining() {
		t.Fatal("Draining() = false after Drain")
	}

	// The admitted request must have been flushed, not failed.
	r := <-resCh
	if r.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", r.err)
	}
	if len(r.out) != 1 {
		t.Fatalf("in-flight request returned %d outputs, want 1", len(r.out))
	}

	// Admission is closed now.
	if _, err := s.Predict(context.Background(), "default", []float64{1, 2}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Predict after Drain: err = %v, want ErrDraining", err)
	}

	// Drain emitted begin and drained events; the late request a draining
	// rejection event.
	if n := len(ev.Query(obs.EventQuery{Kind: obs.KindServerDrain})); n != 2 {
		t.Fatalf("server.draining events = %d, want 2 (begin + drained)", n)
	}
	reqs := ev.Query(obs.EventQuery{Kind: obs.KindServeRequest, Outcome: "draining"})
	if len(reqs) != 1 {
		t.Fatalf("draining rejection events = %d, want 1", len(reqs))
	}

	// The draining gauge reads 1.
	if v, ok := s.Metrics().Value(MetricServeDraining); !ok || v != 1 {
		t.Fatalf("%s = %v, %v; want 1", MetricServeDraining, v, ok)
	}

	// Close after drain still works (idempotent shutdown order).
	s.Close()
}

// TestDrainTimeoutReportsInFlight pins the failure mode: a request that
// cannot finish within the timeout makes Drain return an error naming the
// in-flight count instead of hanging.
func TestDrainTimeoutReportsInFlight(t *testing.T) {
	ev := obs.NewEventLog(16)
	s := newTestServer(t, Config{Events: ev, MaxBatch: 1, Timeout: -1})
	if err := s.Register("default", slowModel(500*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Predict(context.Background(), "default", []float64{1, 2})
	}()
	deadline := time.Now().Add(2 * time.Second)
	for s.pending.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Drain(time.Millisecond); err == nil {
		t.Fatal("Drain with a stuck request returned nil")
	}
	if n := len(ev.Query(obs.EventQuery{Kind: obs.KindServerDrain, Outcome: "timeout"})); n != 1 {
		t.Fatalf("drain timeout events = %d, want 1", n)
	}
	<-done // let the slow batch finish before Cleanup closes the server
}

// TestDrainZeroLossUnderLoad drives many concurrent requests, drains midway,
// and asserts the invariant the CI graceful-drain job relies on: every
// request either succeeds or is rejected with ErrDraining — none fail with a
// shutdown error after being admitted.
func TestDrainZeroLossUnderLoad(t *testing.T) {
	s := newTestServer(t, Config{MaxBatch: 8, QueueDepth: 64, MaxLatency: time.Millisecond})
	if err := s.Register("default", slowModel(200*time.Microsecond)); err != nil {
		t.Fatal(err)
	}
	const callers = 32
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				if _, err := s.Predict(context.Background(), "default", []float64{1, 2}); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	time.Sleep(20 * time.Millisecond)
	if err := s.Drain(5 * time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrDraining) {
			t.Fatalf("caller %d stopped with %v, want ErrDraining", i, err)
		}
	}
	if s.pending.Load() != 0 {
		t.Fatalf("pending = %d after drain, want 0", s.pending.Load())
	}
}

// TestReadyzReportsDraining covers the load-balancer signal: /readyz flips
// to 503 "draining" the moment Drain begins.
func TestReadyzReportsDraining(t *testing.T) {
	s := newTestServer(t, Config{})
	if err := s.Register("default", testModel(4, 2, 1, 1)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	get := func() (int, string) {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := get(); code != http.StatusOK {
		t.Fatalf("/readyz before drain: %d %q, want 200", code, body)
	}
	if err := s.Drain(time.Second); err != nil {
		t.Fatal(err)
	}
	code, body := get()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining: %d %q, want 503", code, body)
	}
	if body != "draining\n" {
		t.Fatalf("/readyz body = %q, want \"draining\\n\"", body)
	}
}

// peer is a stub Peer whose acceptance of work the test sets.
type peer struct{ accepting bool }

func (peer) Metrics() *obs.Registry { return nil }
func (peer) Events() *obs.EventLog  { return nil }
func (p peer) Accepting() bool      { return p.accepting }

// pagingEvaluator returns a manually ticked availability evaluator driven
// into StatePage by all-bad traffic.
func pagingEvaluator(t *testing.T) *slo.Evaluator {
	t.Helper()
	reg := obs.NewRegistry()
	bad := reg.Counter("test_bad_total", "bad requests")
	reg.Counter("test_good_total", "good requests")
	t0 := time.Unix(0, 0)
	ev, err := slo.New(slo.Config{
		Objectives: []slo.Objective{{
			Kind:       slo.Availability,
			GoodMetric: "test_good_total",
			BadMetrics: []string{"test_bad_total"},
		}},
		Window:     12 * time.Second,
		Resolution: time.Second,
		Source:     reg,
		Manual:     true,
		Now:        func() time.Time { return t0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; !ev.Paging(); i++ {
		if i == 20 {
			t.Fatal("all-bad traffic never paged")
		}
		bad.Add(10)
		ev.Tick(t0.Add(time.Duration(i) * time.Second))
	}
	return ev
}

// TestReadiness pins the one /readyz rule and its order: draining, then
// not ready (no model and no accepting peer), then an SLO page, then ok.
func TestReadiness(t *testing.T) {
	paging := pagingEvaluator(t)
	cases := []struct {
		name     string
		model    bool
		draining bool
		ev       *slo.Evaluator
		peers    []Peer
		code     int
		body     string
	}{
		{"draining", true, true, paging, nil, http.StatusServiceUnavailable, "draining\n"},
		{"no model, no peer", false, false, paging, nil, http.StatusServiceUnavailable, "not ready\n"},
		{"no model, accepting peer", false, false, nil, []Peer{peer{false}, peer{true}}, http.StatusOK, "ok\n"},
		{"no model, closed peer", false, false, nil, []Peer{peer{false}}, http.StatusServiceUnavailable, "not ready\n"},
		{"paging", true, false, paging, nil, http.StatusServiceUnavailable, "degraded: slo page\n"},
		{"ready", true, false, nil, nil, http.StatusOK, "ok\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := newTestServer(t, Config{SLO: c.ev})
			if c.model {
				if err := s.Register("default", testModel(4, 2, 1, 1)); err != nil {
					t.Fatal(err)
				}
			}
			if c.draining {
				if err := s.Drain(time.Second); err != nil {
					t.Fatal(err)
				}
			}
			rr := httptest.NewRecorder()
			NewHandler(s, c.peers...).ServeHTTP(rr, httptest.NewRequest("GET", "/readyz", nil))
			if rr.Code != c.code || rr.Body.String() != c.body {
				t.Fatalf("/readyz = %d %q, want %d %q", rr.Code, rr.Body.String(), c.code, c.body)
			}
		})
	}
}
