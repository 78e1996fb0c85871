package serve

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"eigenpro/internal/core"
	"eigenpro/internal/mat"
	"eigenpro/internal/obs"
)

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(time.Millisecond)
	}
}

// gateKernel blocks every evaluation until the gate closes, pinning the
// worker pool in a known busy state for as long as a test needs; entered
// signals that an evaluation has started.
type gateKernel struct {
	gate    <-chan struct{}
	entered chan<- struct{}
}

func (k gateKernel) Eval(x, z []float64) float64 {
	if k.entered != nil {
		k.entered <- struct{}{}
	}
	<-k.gate
	return 1
}
func (k gateKernel) Name() string { return "gate" }

func gatedModel(t *testing.T) (*core.Model, <-chan struct{}) {
	t.Helper()
	gate := make(chan struct{})
	entered := make(chan struct{}, 64)
	// Opening the gate is registered after newTestServer's s.Close, so it
	// runs first and Close never waits on a stalled worker.
	t.Cleanup(func() { close(gate) })
	return &core.Model{
		Kern:  gateKernel{gate: gate, entered: entered},
		X:     mat.NewDenseData(1, 2, []float64{0, 0}),
		Alpha: mat.NewDenseData(1, 1, []float64{1}),
	}, entered
}

// TestCanceledRequestNeverExecutes pins cancellation propagation: a request
// whose context is canceled while it sits in the queue must be reaped
// before device execution — zero device ops charged, no latency sample,
// counted as abandoned rather than expired.
func TestCanceledRequestNeverExecutes(t *testing.T) {
	s := newTestServer(t, Config{
		Workers: 1, MaxBatch: 4, QueueDepth: 16,
		MaxLatency: time.Millisecond, Timeout: -1,
	})
	m := slowModel(time.Millisecond)
	if err := s.Register("m", m); err != nil {
		t.Fatal(err)
	}

	// cancel() publishes ctx.Err synchronously, so the request enqueues as
	// a corpse: whenever the batcher picks it up, it must already see it as
	// abandoned. This is the strongest deterministic form of "canceled
	// while queued".
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Predict(ctx, "m", []float64{0, 0}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled request returned %v, want context.Canceled", err)
	}
	waitFor(t, 5*time.Second, func() bool { return s.Stats().Abandoned == 1 },
		"canceled request was never reaped")

	// A live request afterwards must be the only work the device ever sees.
	if _, err := s.Predict(context.Background(), "m", []float64{0, 0}); err != nil {
		t.Fatalf("live request after cancellation: %v", err)
	}
	st := s.Stats()
	if want := core.PredictOps(m.X.Rows, 1, m.X.Cols, m.Alpha.Cols); st.SimOps != want {
		t.Fatalf("device ops = %v, want %v (one live row): the canceled request reached the device",
			st.SimOps, want)
	}
	if st.Requests != 1 {
		t.Fatalf("latency histogram holds %d samples, want 1 (the live request only)", st.Requests)
	}
	if st.Expired != 0 {
		t.Fatalf("canceled request miscounted as expired: %+v", st)
	}
}

// TestSaturationOccupancy pins the occupancy fix: when queue wait exceeds
// MaxLatency (sustained overload), gather must drain the backlog into full
// batches instead of racing the fired flush timer, keeping mean occupancy
// at >= 0.8*m_max.
func TestSaturationOccupancy(t *testing.T) {
	const mmax = 8
	s := newTestServer(t, Config{
		Workers: 1, MaxBatch: mmax, QueueDepth: 256,
		MaxLatency: time.Millisecond, Timeout: -1,
	})
	if err := s.Register("m", slowModel(2*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	const (
		clients   = 4 * mmax
		perClient = 8
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if _, err := s.Predict(context.Background(), "m", []float64{0, 0}); err != nil {
					t.Errorf("predict under saturation: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.Requests != clients*perClient {
		t.Fatalf("delivered %d of %d", st.Requests, clients*perClient)
	}
	if floor := 0.8 * mmax; st.MeanOccupancy < floor {
		t.Fatalf("mean occupancy %.2f under saturation, want >= %.1f (m_max=%d)\n%s",
			st.MeanOccupancy, floor, mmax, st)
	}
}

// TestDeadlineAwareShedding pins Config.Shed: once the per-row service
// EWMA is primed, a flood against a busy worker must shed the requests
// whose deadline cannot survive the estimated queue wait — at admission,
// with ErrShed (mapped to 429 by the HTTP layer) — while still admitting
// the requests that can make it.
func TestDeadlineAwareShedding(t *testing.T) {
	s := newTestServer(t, Config{
		Workers: 1, MaxBatch: 1, QueueDepth: 64, Shed: true,
		MaxLatency: time.Millisecond, Timeout: 30 * time.Millisecond,
	})
	if err := s.Register("m", slowModel(20*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	// Prime the service-time EWMA with one measured batch.
	if _, err := s.Predict(context.Background(), "m", []float64{0, 0}); err != nil {
		t.Fatalf("priming request: %v", err)
	}

	const flood = 8
	var shed, delivered, expired int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Predict(context.Background(), "m", []float64{0, 0})
			mu.Lock()
			defer mu.Unlock()
			switch {
			case errors.Is(err, ErrShed):
				shed++
			case errors.Is(err, ErrDeadlineExceeded):
				expired++
			case err == nil:
				delivered++
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()
	if shed == 0 {
		t.Fatalf("nothing shed: delivered %d, expired %d (queue-wait estimate never tripped)",
			delivered, expired)
	}
	if delivered == 0 {
		t.Fatal("everything shed; admission control admitted nothing")
	}
	if st := s.Stats(); st.Shed != shed {
		t.Fatalf("stats.Shed = %d, callers saw %d", st.Shed, shed)
	}
}

// TestRejectionDoesNotEvictTraces pins the retention rule of the trace
// view: queue-full rejections are recorded as wide events but add no trace
// to the view, so a rejection flood during an overload incident cannot
// crowd out the traces of the requests that ran. The pipeline is plugged
// with a gated model so the queue stays full for the whole flood.
func TestRejectionDoesNotEvictTraces(t *testing.T) {
	s := newTestServer(t, Config{
		Workers: 1, MaxBatch: 1, QueueDepth: 1,
		MaxLatency: time.Millisecond, Timeout: -1,
	})
	gate := make(chan struct{})
	entered := make(chan struct{}, 64)
	var opened sync.Once
	release := func() { opened.Do(func() { close(gate) }) }
	t.Cleanup(release) // runs before s.Close, which must not wait on a gated worker
	m := &core.Model{
		Kern:  gateKernel{gate: gate, entered: entered},
		X:     mat.NewDenseData(1, 2, []float64{0, 0}),
		Alpha: mat.NewDenseData(1, 1, []float64{1}),
	}
	if err := s.Register("m", m); err != nil {
		t.Fatal(err)
	}
	e, ok := s.reg.entry("m")
	if !ok {
		t.Fatal("entry missing")
	}
	plug := func() { go s.Predict(context.Background(), "m", []float64{0, 0}) }
	// Plug the pipeline one stage at a time so the final state is
	// deterministic: one request executing (blocked on the gate), one
	// buffered in the work channel, one held by the batcher blocked on the
	// work send, one parked in the depth-1 queue. Nothing can drain until
	// the gate opens, so every request below is rejected.
	plug()
	<-entered // worker is executing and gated
	plug()
	waitFor(t, 5*time.Second, func() bool { return len(s.work) == 1 },
		"second plug never reached the work buffer")
	plug()
	waitFor(t, 5*time.Second, func() bool { return len(e.queue) == 0 && len(s.work) == 1 },
		"third plug never reached the blocked batcher")
	plug()
	waitFor(t, 5*time.Second, func() bool { return len(e.queue) == 1 },
		"fourth plug never parked in the queue")

	var rejected int
	for i := 0; i < 100; i++ {
		if _, err := s.Predict(context.Background(), "m", []float64{0, 0}); errors.Is(err, ErrOverloaded) {
			rejected++
		} else {
			t.Fatalf("request %d was admitted into a plugged pipeline: %v", i, err)
		}
	}
	if n := len(s.Events().Query(obs.EventQuery{Outcome: "rejected"})); n != rejected {
		t.Fatalf("%d rejected events recorded for %d rejections", n, rejected)
	}
	if traces := s.Tracer().Snapshot(); len(traces) != 0 {
		t.Fatalf("%d rejections put %d traces in the view: %+v", rejected, len(traces), traces)
	}

	// Unplugged, the four admitted requests complete and their traces are
	// readable alongside the flood's records.
	release()
	waitFor(t, 5*time.Second, func() bool { return s.Stats().Requests == 4 },
		"plugged requests never completed")
	traces := s.Tracer().Snapshot()
	if len(traces) != 4 {
		t.Fatalf("view holds %d traces, want the 4 plugged requests", len(traces))
	}
	for _, tr := range traces {
		var names []string
		for _, sp := range tr.Spans {
			names = append(names, sp.Name)
		}
		if got := strings.Join(names, ","); got != "enqueue,batch-wait,device-execute" {
			t.Fatalf("trace %s spans = %s", tr.ID, got)
		}
	}
}
