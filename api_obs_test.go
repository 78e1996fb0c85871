package eigenpro

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestObservabilityHTTP exercises the PR's acceptance criteria through the
// public surface: with serving and the job manager sharing one metrics
// registry and one trace ring, a single GET /metrics on the combined
// handler exposes serving, jobs, and per-job trainer series, and the
// trace ID echoed in a predict response is findable at GET /debug/traces.
func TestObservabilityHTTP(t *testing.T) {
	reg := NewMetricsRegistry()
	srv := NewServer(ServerConfig{Metrics: reg})
	defer srv.Close()
	mgr := NewTrainingManager(TrainingConfig{
		Workers: 1, Registrar: srv, Metrics: reg,
	})
	defer mgr.Close()
	ts := httptest.NewServer(NewTrainServeHandler(srv, mgr))
	defer ts.Close()

	// Liveness is unconditional; readiness needs a model or an accepting
	// job manager (the manager is open, so this is ready immediately).
	for _, path := range []string{"/healthz", "/readyz"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, r.StatusCode)
		}
	}

	// Train a small model over HTTP so the trainer telemetry flows into
	// the shared registry under the job label.
	body := `{"name":"obs-susy","dataset":"susy","n":240,"epochs":2,"s":64,"sigma":3,"seed":7}`
	resp, err := http.Post(ts.URL+"/train", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var job TrainingJob
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || job.ID == "" {
		t.Fatalf("POST /train: %d %+v", resp.StatusCode, job)
	}
	if job.TraceID == "" {
		t.Fatalf("submitted job carries no trace_id: %+v", job)
	}
	deadline := time.Now().Add(120 * time.Second)
	for {
		cur, ok := JobStatus(mgr, job.ID)
		if !ok {
			t.Fatalf("job %s vanished", job.ID)
		}
		if cur.State == JobDone {
			break
		}
		if cur.State == JobFailed || cur.State == JobCancelled {
			t.Fatalf("job ended %q (%s)", cur.State, cur.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %+v", cur)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Predict and capture the echoed trace ID (body field and header).
	query := SUSYLike(4, 11).X.RowView(0)
	pb, _ := json.Marshal(map[string]any{"model": "obs-susy", "x": query})
	pr, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(pb))
	if err != nil {
		t.Fatal(err)
	}
	var pred struct {
		TraceID string `json:"trace_id"`
	}
	if err := json.NewDecoder(pr.Body).Decode(&pred); err != nil {
		t.Fatal(err)
	}
	pr.Body.Close()
	if pr.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/predict: %d", pr.StatusCode)
	}
	if pred.TraceID == "" {
		t.Fatal("predict response carries no trace_id")
	}
	if hdr := pr.Header.Get("X-Trace-Id"); hdr != pred.TraceID {
		t.Fatalf("X-Trace-Id header %q != body trace_id %q", hdr, pred.TraceID)
	}

	// Both the predict trace and the job trace are in the shared ring,
	// with the spans the trace contract promises.
	tr, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	var traces struct {
		Traces []struct {
			ID    string `json:"id"`
			Name  string `json:"name"`
			Spans []struct {
				Name string `json:"name"`
			} `json:"spans"`
		} `json:"traces"`
	}
	if err := json.NewDecoder(tr.Body).Decode(&traces); err != nil {
		t.Fatal(err)
	}
	tr.Body.Close()
	spansOf := func(id string) map[string]bool {
		for _, snap := range traces.Traces {
			if snap.ID != id {
				continue
			}
			got := make(map[string]bool, len(snap.Spans))
			for _, sp := range snap.Spans {
				got[sp.Name] = true
			}
			return got
		}
		t.Fatalf("trace %s not found in /debug/traces (%d traces)", id, len(traces.Traces))
		return nil
	}
	predSpans := spansOf(pred.TraceID)
	for _, want := range []string{"enqueue", "batch-wait", "device-execute"} {
		if !predSpans[want] {
			t.Fatalf("predict trace missing span %q: %v", want, predSpans)
		}
	}
	jobSpans := spansOf(job.TraceID)
	for _, want := range []string{"submit", "queue", "epoch[1]", "epoch[2]", "register"} {
		if !jobSpans[want] {
			t.Fatalf("job trace missing span %q: %v", want, jobSpans)
		}
	}

	// One scrape covers all three subsystems because they share the
	// registry.
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(mr.Body)
	mr.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if mr.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", mr.StatusCode)
	}
	if ct := mr.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("exposition content type %q", ct)
	}
	exposition := string(raw)
	for _, series := range []string{
		// Serving.
		"eigenpro_serve_requests_total ",
		"eigenpro_serve_rejected_total ",
		"eigenpro_serve_latency_seconds_bucket{",
		"eigenpro_serve_latency_seconds_count ",
		"eigenpro_serve_batch_occupancy_bucket{",
		"eigenpro_serve_device_utilization ",
		"eigenpro_serve_models ",
		`eigenpro_serve_queue_depth{model="obs-susy"}`,
		// Jobs.
		"eigenpro_jobs_submitted_total 1",
		"eigenpro_jobs_completed_total 1",
		"eigenpro_jobs_queue_depth 0",
		`eigenpro_jobs_state{state="done"} 1`,
		// Trainer (via the job's OnEpoch hook).
		"eigenpro_train_epochs_total 2",
		"eigenpro_train_epoch_duration_seconds_count 2",
		`eigenpro_train_mse{job="` + job.ID + `"}`,
		`eigenpro_train_epoch{job="` + job.ID + `"} 2`,
	} {
		if !strings.Contains(exposition, series) {
			t.Fatalf("exposition missing %q\n----\n%s", series, exposition)
		}
	}
	if strings.Count(exposition, "# TYPE eigenpro_serve_requests_total counter") != 1 {
		t.Fatal("duplicate or missing TYPE line for eigenpro_serve_requests_total")
	}
}

// TestTraceIDTriad pins this PR's acceptance criterion end to end: the
// trace ID echoed by one predict response is findable on all three
// observability surfaces — as an OpenMetrics latency exemplar at
// GET /metrics, as a span trace at GET /debug/traces?id=, and on the
// request's wide event at GET /debug/events. It also checks the Go
// runtime telemetry rides along on the exposition.
func TestTraceIDTriad(t *testing.T) {
	reg := NewMetricsRegistry()
	events := NewEventLog(0)
	srv := NewServer(ServerConfig{Metrics: reg, Events: events})
	defer srv.Close()
	mgr := NewTrainingManager(TrainingConfig{
		Workers: 1, Registrar: srv, Metrics: reg, Events: events,
	})
	defer mgr.Close()
	ts := httptest.NewServer(NewTrainServeHandler(srv, mgr))
	defer ts.Close()

	ds := SUSYLike(240, 11)
	res, err := Train(Config{Kernel: GaussianKernel(3), Epochs: 1, Seed: 7}, ds.X, ds.Y)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Register("triad", res.Model); err != nil {
		t.Fatal(err)
	}

	pb, _ := json.Marshal(map[string]any{"model": "triad", "x": ds.X.RowView(0)})
	pr, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(pb))
	if err != nil {
		t.Fatal(err)
	}
	var pred struct {
		TraceID string `json:"trace_id"`
	}
	if err := json.NewDecoder(pr.Body).Decode(&pred); err != nil {
		t.Fatal(err)
	}
	pr.Body.Close()
	if pr.StatusCode != http.StatusOK || pred.TraceID == "" {
		t.Fatalf("POST /v1/predict: %d trace_id=%q", pr.StatusCode, pred.TraceID)
	}

	// Surface 1: the OpenMetrics exposition carries the trace as a latency
	// bucket exemplar (and the plain exposition does not).
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text; version=1.0.0")
	mr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	om := string(raw)
	if ct := mr.Header.Get("Content-Type"); !strings.Contains(ct, "application/openmetrics-text") {
		t.Fatalf("OpenMetrics content type %q", ct)
	}
	if !strings.HasSuffix(om, "# EOF\n") {
		t.Fatal("OpenMetrics exposition missing # EOF")
	}
	exemplar := `# {trace_id="` + pred.TraceID + `"}`
	if !strings.Contains(om, exemplar) {
		t.Fatalf("exposition missing exemplar %q\n----\n%s", exemplar, om)
	}
	if !strings.Contains(om, "go_goroutines ") || !strings.Contains(om, "go_gc_pauses_seconds_bucket{") {
		t.Fatal("exposition missing Go runtime telemetry")
	}
	plain, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	rawPlain, _ := io.ReadAll(plain.Body)
	plain.Body.Close()
	if strings.Contains(string(rawPlain), "# {") {
		t.Fatal("plain Prometheus exposition leaked exemplar syntax")
	}

	// Surface 2: /debug/traces?id= resolves the trace; an unknown id 404s.
	tr, err := http.Get(ts.URL + "/debug/traces?id=" + pred.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	var traces struct {
		Traces []struct {
			ID string `json:"id"`
		} `json:"traces"`
	}
	if err := json.NewDecoder(tr.Body).Decode(&traces); err != nil {
		t.Fatal(err)
	}
	tr.Body.Close()
	if tr.StatusCode != http.StatusOK || len(traces.Traces) != 1 || traces.Traces[0].ID != pred.TraceID {
		t.Fatalf("GET /debug/traces?id=%s: %d %+v", pred.TraceID, tr.StatusCode, traces)
	}
	if nf, err := http.Get(ts.URL + "/debug/traces?id=bogus"); err != nil {
		t.Fatal(err)
	} else {
		nf.Body.Close()
		if nf.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown trace id: %d, want 404", nf.StatusCode)
		}
	}

	// Surface 3: the request's wide event carries the same trace id.
	er, err := http.Get(ts.URL + "/debug/events?model=triad&outcome=ok")
	if err != nil {
		t.Fatal(err)
	}
	var evs struct {
		Events  []Event `json:"events"`
		Emitted uint64  `json:"emitted"`
	}
	if err := json.NewDecoder(er.Body).Decode(&evs); err != nil {
		t.Fatal(err)
	}
	er.Body.Close()
	if er.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/events: %d", er.StatusCode)
	}
	found := false
	for _, ev := range evs.Events {
		if ev.TraceID == pred.TraceID {
			found = true
			if ev.Kind != "serve.request" || ev.Rows != 1 || ev.BatchID == 0 || ev.Occupancy < 1 {
				t.Fatalf("wide event malformed: %+v", ev)
			}
		}
	}
	if !found {
		t.Fatalf("no wide event carries trace %s: %+v", pred.TraceID, evs)
	}
	if evs.Emitted == 0 {
		t.Fatal("event log reports zero emitted")
	}
}
