package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestMetricsHandlerContentNegotiation(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{1})
	h.ObserveEx(0.5, "trace-x")
	srv := httptest.NewServer(MetricsHandler(r))
	defer srv.Close()

	get := func(accept string) (string, string) {
		req, _ := http.NewRequest(http.MethodGet, srv.URL, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b), resp.Header.Get("Content-Type")
	}

	plain, ct := get("")
	if !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("default content type %q", ct)
	}
	if strings.Contains(plain, "# EOF") || strings.Contains(plain, "trace_id=") {
		t.Fatalf("plain exposition leaked OpenMetrics syntax:\n%s", plain)
	}

	om, ct := get("application/openmetrics-text; version=1.0.0")
	if !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Fatalf("OpenMetrics content type %q", ct)
	}
	if !strings.HasSuffix(om, "# EOF\n") {
		t.Fatalf("OpenMetrics exposition missing # EOF:\n%s", om)
	}
	if strings.Count(om, "# EOF") != 1 {
		t.Fatalf("exactly one # EOF expected:\n%s", om)
	}
	if !strings.Contains(om, `trace_id="trace-x"`) {
		t.Fatalf("OpenMetrics exposition missing exemplar:\n%s", om)
	}
}

func TestMetricsHandlerIncludesRuntimeTelemetryOnce(t *testing.T) {
	// Two distinct registries plus a duplicate: runtime go_* series must
	// appear exactly once in the merged exposition.
	a, b := NewRegistry(), NewRegistry()
	a.Counter("a_total", "a").Inc()
	b.Counter("b_total", "b").Inc()
	srv := httptest.NewServer(MetricsHandler(a, b, a))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	out := string(body)
	for _, name := range []string{MetricGoGoroutines, MetricGoGomaxprocs, MetricGoGCCycles} {
		if n := strings.Count(out, "# TYPE "+name+" "); n != 1 {
			t.Errorf("series %s appears %d times, want 1\n%s", name, n, out)
		}
	}
	if !strings.Contains(out, "a_total 1") || !strings.Contains(out, "b_total 1") {
		t.Fatalf("merged exposition missing subsystem series:\n%s", out)
	}
	// go_goroutines must report a live, positive value.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, MetricGoGoroutines+" ") {
			if strings.TrimPrefix(line, MetricGoGoroutines+" ") == "0" {
				t.Fatalf("go_goroutines reported 0: %q", line)
			}
			return
		}
	}
	t.Fatalf("no %s sample in exposition:\n%s", MetricGoGoroutines, out)
}

func TestRuntimeHistogramBuckets(t *testing.T) {
	snap := runtimeHistogram("/sched/latencies:seconds")()
	if len(snap.Bounds) == 0 {
		t.Skip("runtime does not expose /sched/latencies:seconds")
	}
	if len(snap.Bounds) > maxRuntimeBuckets {
		t.Fatalf("runtime histogram has %d buckets, want <= %d", len(snap.Bounds), maxRuntimeBuckets)
	}
	if len(snap.Counts) != len(snap.Bounds)+1 {
		t.Fatalf("counts %d != bounds %d + 1", len(snap.Counts), len(snap.Bounds))
	}
	for i := 1; i < len(snap.Bounds); i++ {
		if snap.Bounds[i] <= snap.Bounds[i-1] {
			t.Fatalf("bounds not ascending: %v", snap.Bounds)
		}
	}
}

func TestTracesHandlerByID(t *testing.T) {
	l := NewEventLog(8)
	id := NewTraceID()
	l.Emit(okRequest(id, time.Now(), time.Microsecond, time.Microsecond))
	for i := 0; i < 3; i++ {
		l.Emit(okRequest(NewTraceID(), time.Now(), time.Microsecond, time.Microsecond))
	}
	srv := httptest.NewServer(TracesHandler(l))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "?id=" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("?id= lookup status %d", resp.StatusCode)
	}
	var body struct {
		Traces []TraceSnapshot `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Traces) != 1 || body.Traces[0].ID != id {
		t.Fatalf("?id= returned %+v", body.Traces)
	}

	resp404, err := srv.Client().Get(srv.URL + "?id=no-such-trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp404.Body.Close()
	if resp404.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id status %d, want 404", resp404.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp404.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.Error, "no-such-trace") {
		t.Fatalf("404 body %+v should name the id", e)
	}
}

func TestTracesHandlerLimit(t *testing.T) {
	l := NewEventLog(8)
	for i := 0; i < 5; i++ {
		l.Emit(okRequest(NewTraceID(), time.Now(), time.Microsecond, time.Microsecond))
	}
	srv := httptest.NewServer(TracesHandler(l))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "?limit=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Traces []TraceSnapshot `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Traces) != 2 {
		t.Fatalf("?limit=2 returned %d traces", len(body.Traces))
	}
}

func TestTracesHandlerMergesTracers(t *testing.T) {
	a, b := NewEventLog(4), NewEventLog(4)
	at := time.Now()
	a.Emit(okRequest("old-a", at, time.Microsecond, time.Microsecond))
	b.Emit(okRequest("old-b", at.Add(time.Millisecond), time.Microsecond, time.Microsecond))
	a.Emit(okRequest("newest", at.Add(2*time.Millisecond), time.Microsecond, time.Microsecond))
	srv := httptest.NewServer(TracesHandler(a, b))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "?limit=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Traces []TraceSnapshot `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Traces) != 1 || body.Traces[0].ID != "newest" {
		t.Fatalf("cross-log merge with limit=1 returned %+v, want the newest trace", body.Traces)
	}
}

func TestEventsHandler(t *testing.T) {
	serveLog := NewEventLog(16)
	jobLog := NewEventLog(16)
	serveLog.Emit(Event{Kind: KindServeRequest, Model: "a", Outcome: "ok", TraceID: "t1"})
	serveLog.Emit(Event{Kind: KindServeRequest, Model: "a", Outcome: "shed", Level: LevelWarn})
	serveLog.Emit(Event{Kind: KindServeRequest, Model: "b", Outcome: "ok"})
	jobLog.Emit(Event{Kind: KindJobState, Job: "j1", Outcome: "running"})
	jobLog.Emit(Event{Kind: KindTrainEpoch, Job: "j1", Epoch: 1, MSE: 0.5})

	srv := httptest.NewServer(EventsHandler(serveLog, jobLog, serveLog, nil))
	defer srv.Close()

	query := func(params string) (int, struct {
		Events  []Event `json:"events"`
		Emitted uint64  `json:"emitted"`
		Dropped uint64  `json:"dropped"`
	}) {
		resp, err := srv.Client().Get(srv.URL + params)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Events  []Event `json:"events"`
			Emitted uint64  `json:"emitted"`
			Dropped uint64  `json:"dropped"`
		}
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, body
	}

	code, all := query("")
	if code != http.StatusOK || len(all.Events) != 5 {
		t.Fatalf("unfiltered: status %d, %d events (want 5 across both logs)", code, len(all.Events))
	}
	if all.Emitted != 5 {
		t.Fatalf("emitted = %d, want 5 (dedup of duplicate log pointer)", all.Emitted)
	}
	// Cross-log merge is newest first.
	for i := 1; i < len(all.Events); i++ {
		if all.Events[i].Time.After(all.Events[i-1].Time) {
			t.Fatalf("events out of order at %d: %+v", i, all.Events)
		}
	}

	if _, r := query("?model=a"); len(r.Events) != 2 {
		t.Fatalf("?model=a returned %d events, want 2", len(r.Events))
	}
	if _, r := query("?outcome=ok"); len(r.Events) != 2 {
		t.Fatalf("?outcome=ok returned %d events, want 2", len(r.Events))
	}
	if _, r := query("?job=j1"); len(r.Events) != 2 {
		t.Fatalf("?job=j1 returned %d events, want 2", len(r.Events))
	}
	if _, r := query("?kind=" + KindTrainEpoch); len(r.Events) != 1 || r.Events[0].MSE != 0.5 {
		t.Fatalf("?kind=train.epoch returned %+v", r.Events)
	}
	if _, r := query("?level=warn"); len(r.Events) != 1 || r.Events[0].Outcome != "shed" {
		t.Fatalf("?level=warn returned %+v", r.Events)
	}
	if _, r := query("?limit=3"); len(r.Events) != 3 {
		t.Fatalf("?limit=3 returned %d events", len(r.Events))
	}
	if _, r := query("?since=" + time.Now().Add(time.Hour).UTC().Format(time.RFC3339)); len(r.Events) != 0 {
		t.Fatalf("future ?since returned %d events", len(r.Events))
	}
	if _, r := query("?since=1h"); len(r.Events) != 5 {
		t.Fatalf("?since=1h returned %d events, want 5", len(r.Events))
	}
	// An integer ?since is a per-log sequence cursor: strictly after it.
	// serveLog holds seqs 1-3 and jobLog 1-2, so ?since=2 returns only
	// serveLog's third event.
	if _, r := query("?since=2"); len(r.Events) != 1 || r.Events[0].Model != "b" {
		t.Fatalf("?since=2 returned %+v, want only serveLog seq 3", r.Events)
	}
	if _, r := query("?since=0"); len(r.Events) != 5 {
		t.Fatalf("?since=0 returned %d events, want all 5", len(r.Events))
	}

	for _, bad := range []string{"?since=yesterday", "?limit=-1", "?limit=x"} {
		if code, _ := query(bad); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", bad, code)
		}
	}
	// The 400 body documents every accepted ?since form.
	resp400, err := srv.Client().Get(srv.URL + "?since=yesterday")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp400.Body)
	resp400.Body.Close()
	for _, want := range []string{"sequence number", "RFC 3339", "duration"} {
		if !strings.Contains(string(raw), want) {
			t.Fatalf("400 body %q does not document %q", raw, want)
		}
	}

	resp, err := srv.Client().Post(srv.URL, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status %d, want 405", resp.StatusCode)
	}
}

func TestEventsHandlerEmpty(t *testing.T) {
	srv := httptest.NewServer(EventsHandler(nil))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	b, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(b), `"events":[]`) {
		t.Fatalf("empty handler body %q should carry an empty array, not null", b)
	}
}
