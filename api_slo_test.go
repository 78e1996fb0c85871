package eigenpro

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSLOBreachLifecycle is the PR's acceptance test: a live server under
// an unmeetable latency objective walks ok -> warn -> page, /readyz
// degrades to 503 while paging, and exactly one rate-limited flight
// snapshot is captured and retrievable through GET /debug/flight.
func TestSLOBreachLifecycle(t *testing.T) {
	ds := MNISTLike(200, 17)
	res, err := Train(Config{Kernel: GaussianKernel(5), Epochs: 1, Seed: 17}, ds.X, ds.Y)
	if err != nil {
		t.Fatal(err)
	}

	reg := NewMetricsRegistry()
	events := NewEventLog(512)

	flight, err := NewFlightRecorder(FlightConfig{
		Dir:         t.TempDir(),
		CPUProfile:  20 * time.Millisecond,
		MinInterval: time.Hour, // one snapshot per test run, whatever flaps
		Events:      events,
		Registries:  []*MetricsRegistry{reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	// LatencyP99 of 1ns is unmeetable: every completed request lands in a
	// histogram bucket above it, so the error budget burns at 1/(1-target)
	// = 100x — far past the fast-burn page threshold.
	ev, err := NewSLOEvaluator(SLOConfig{
		Objectives: []SLOObjective{{
			Kind:       SLOLatency,
			Name:       "latency-p99",
			Target:     0.99,
			LatencyP99: time.Nanosecond,
		}},
		Window:     2400 * time.Millisecond,
		Resolution: 50 * time.Millisecond,
		PageAfter:  400 * time.Millisecond,
		Source:     reg,
		Events:     events,
		Flight:     flight,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ev.Close()

	srv := NewServer(ServerConfig{
		Metrics: reg, Events: events,
		SLO: ev,
	})
	defer srv.Close()
	if err := srv.Register("m", res.Model); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServerHandler(srv))
	defer ts.Close()

	// Drive traffic while polling /debug/slo, recording each distinct state
	// as it appears; stop once the objective pages.
	query := ds.X.RowView(0)
	var seen []string
	deadline := time.Now().Add(30 * time.Second)
	for {
		for i := 0; i < 10; i++ {
			if _, err := srv.Predict(context.Background(), "m", query); err != nil {
				t.Fatal(err)
			}
		}
		st := sloState(t, ts.URL)
		if len(seen) == 0 || seen[len(seen)-1] != st {
			seen = append(seen, st)
		}
		if st == "page" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("objective never paged; states seen: %v", seen)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if want := []string{"ok", "warn", "page"}; strings.Join(seen, ",") != strings.Join(want, ",") {
		t.Fatalf("state progression %v, want %v", seen, want)
	}

	// Readiness degrades while paging.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "degraded") {
		t.Fatalf("GET /readyz while paging: %d %q, want 503 degraded", resp.StatusCode, body)
	}

	// Exactly one snapshot was captured (the rate limit swallows any
	// further triggers), and it is complete and fetchable over HTTP.
	flight.Wait()
	if got := flight.Captures(); got != 1 {
		t.Fatalf("flight captures = %d, want exactly 1", got)
	}
	var listing struct {
		Snapshots []FlightSnapshot `json:"snapshots"`
	}
	getJSON(t, ts.URL+"/debug/flight", &listing)
	if len(listing.Snapshots) != 1 || !listing.Snapshots[0].Complete {
		t.Fatalf("flight listing = %+v, want one complete snapshot", listing.Snapshots)
	}
	snap := listing.Snapshots[0]
	if snap.Reason != "latency-p99" {
		t.Fatalf("snapshot reason %q, want the breaching objective", snap.Reason)
	}
	have := map[string]bool{}
	for _, f := range snap.Files {
		have[f.Name] = true
	}
	for _, name := range []string{
		"cpu.pprof", "heap.pprof", "goroutines.txt",
		"events.jsonl", "traces.json", "metrics.prom", "metrics.om", "meta.json",
	} {
		if !have[name] {
			t.Fatalf("snapshot missing %s (has %v)", name, snap.Files)
		}
	}
	fresp, err := http.Get(ts.URL + "/debug/flight?snapshot=" + snap.Name + "&file=meta.json")
	if err != nil {
		t.Fatal(err)
	}
	meta, _ := io.ReadAll(fresp.Body)
	fresp.Body.Close()
	if fresp.StatusCode != 200 || !strings.Contains(string(meta), "latency-p99") {
		t.Fatalf("fetch meta.json: %d %q", fresp.StatusCode, meta)
	}
	if _, err := os.Stat(filepath.Join(flight.Dir(), snap.Name, "cpu.pprof")); err != nil {
		t.Fatal(err)
	}

	// The transition history on /debug/slo tells the same story and the
	// page transition points at the snapshot.
	var slo struct {
		History []SLOTransition `json:"history"`
		Paging  bool            `json:"paging"`
	}
	getJSON(t, ts.URL+"/debug/slo", &slo)
	if !slo.Paging {
		t.Fatal("/debug/slo paging = false while an objective pages")
	}
	var paged bool
	for _, tr := range slo.History {
		if tr.To == "page" {
			paged = true
			if tr.Snapshot == "" {
				t.Fatal("page transition carries no snapshot path")
			}
		}
	}
	if !paged {
		t.Fatalf("history has no page transition: %+v", slo.History)
	}

	// The breach also shows up as wide events: slo.state transitions and
	// the flight.snapshot record.
	if evs := events.Query(EventQuery{Kind: "slo.state"}); len(evs) < 2 {
		t.Fatalf("want ok>warn and warn>page slo.state events, got %+v", evs)
	}
	if evs := events.Query(EventQuery{Kind: "flight.snapshot"}); len(evs) != 1 {
		t.Fatalf("want one flight.snapshot event, got %+v", evs)
	}
}

// sloState fetches the single objective's alert state from /debug/slo.
func sloState(t *testing.T, base string) string {
	t.Helper()
	var payload struct {
		Objectives []SLOObjectiveStatus `json:"objectives"`
	}
	getJSON(t, base+"/debug/slo", &payload)
	if len(payload.Objectives) != 1 {
		t.Fatalf("/debug/slo objectives = %+v", payload.Objectives)
	}
	return payload.Objectives[0].State
}

// getJSON fetches a URL and decodes the JSON body into out.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}
