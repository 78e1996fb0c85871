package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// okRequest is a serve.request ok event as the server emits it: Time is
// the end of the device execution that carried the request.
func okRequest(id string, at time.Time, wait, exec time.Duration) Event {
	return Event{Time: at, Kind: KindServeRequest, Model: "m", Outcome: "ok", TraceID: id,
		Rows: 1, BatchID: 1, Occupancy: 1, QueueWait: wait, DeviceTime: exec}
}

func TestTraceBasics(t *testing.T) {
	l := NewEventLog(8)
	at := time.Now()
	id := NewTraceID()
	l.Emit(okRequest(id, at, 3*time.Millisecond, 2*time.Millisecond))
	l.Emit(Event{Kind: KindServeRequest, Outcome: "ok", QueueWait: time.Millisecond}) // unrecorded ID: no trace

	snap, ok := TraceView{l}.Find(id)
	if !ok {
		t.Fatalf("trace %s not found in the view", id)
	}
	if snap.Name != "predict" || !snap.Start.Equal(at.Add(-5*time.Millisecond)) {
		t.Fatalf("trace = %+v, want name predict starting at enqueue", snap)
	}
	want := []Span{
		{Name: "enqueue", Start: at.Add(-5 * time.Millisecond)},
		{Name: "batch-wait", Start: at.Add(-5 * time.Millisecond), Duration: 3 * time.Millisecond},
		{Name: "device-execute", Start: at.Add(-2 * time.Millisecond), Duration: 2 * time.Millisecond},
	}
	if len(snap.Spans) != len(want) {
		t.Fatalf("spans = %+v, want %+v", snap.Spans, want)
	}
	for i, sp := range snap.Spans {
		if sp.Name != want[i].Name || !sp.Start.Equal(want[i].Start) || sp.Duration != want[i].Duration {
			t.Fatalf("span %d = %+v, want %+v", i, sp, want[i])
		}
	}
	if got := (TraceView{l}).Snapshot(); len(got) != 1 {
		t.Fatalf("snapshot holds %d traces, want 1 (events without a trace ID form none)", len(got))
	}

	hex16 := regexp.MustCompile(`^[0-9a-f]{16}$`)
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if !hex16.MatchString(id) || seen[id] {
			t.Fatalf("trace ID %q malformed or repeated", id)
		}
		seen[id] = true
	}
}

// TestTraceViewDerivesSpans pins the event → span mapping for every request
// outcome and for a job's done and cancel-with-checkpoint paths: the span
// names, and that each duration is the source event's QueueWait,
// DeviceTime, or Wall.
func TestTraceViewDerivesSpans(t *testing.T) {
	const (
		qw   = 3 * time.Millisecond
		dt   = 2 * time.Millisecond
		wall = 5 * time.Millisecond
	)
	t0 := time.Now()
	req := func(outcome string, batch uint64, device time.Duration) []Event {
		lv := LevelWarn
		if outcome == "ok" {
			lv = LevelInfo
		}
		return []Event{{Time: t0, Level: lv, Kind: KindServeRequest, Outcome: outcome,
			BatchID: batch, QueueWait: qw, DeviceTime: device}}
	}
	job := func(evs ...Event) []Event {
		for i := range evs {
			evs[i].Time = t0.Add(time.Duration(i) * 10 * time.Millisecond)
			evs[i].Job = "job-1"
		}
		return evs
	}
	state := func(outcome string, ev Event) Event {
		ev.Kind, ev.Outcome = KindJobState, outcome
		return ev
	}
	epoch := func(k int) Event { return Event{Kind: KindTrainEpoch, Epoch: k, Wall: wall + time.Duration(k)} }
	type span struct {
		name string
		d    time.Duration
	}
	cases := []struct {
		name   string
		events []Event
		trace  string
		want   []span
	}{
		{"ok", req("ok", 7, dt), "predict",
			[]span{{"enqueue", 0}, {"batch-wait", qw}, {"device-execute", dt}}},
		{"rejected", req("rejected", 0, 0), "predict", []span{{"rejected", qw}}},
		{"shed", req("shed", 0, 0), "predict", []span{{"shed", qw}}},
		{"expired", req("expired", 0, 0), "predict", []span{{"enqueue", 0}, {"expired", qw}}},
		{"abandoned in queue", req("abandoned", 0, 0), "predict", []span{{"enqueue", 0}, {"abandoned", qw}}},
		{"abandoned in flight", req("abandoned", 7, dt), "predict",
			[]span{{"enqueue", 0}, {"batch-wait", qw}, {"abandoned", dt}}},
		{"job done", job(
			state("queued", Event{Wall: time.Millisecond}),
			state("running", Event{QueueWait: qw}),
			epoch(1), epoch(2),
			state("done", Event{Wall: 4 * time.Millisecond}),
		), "job:job-1", []span{{"submit", time.Millisecond}, {"queue", qw},
			{"epoch[1]", wall + 1}, {"epoch[2]", wall + 2}, {"register", 4 * time.Millisecond}}},
		{"job cancelled with checkpoint", job(
			state("queued", Event{Wall: time.Millisecond}),
			state("running", Event{QueueWait: qw}),
			epoch(1),
			state("cancelled", Event{Level: LevelWarn, Wall: 6 * time.Millisecond}),
		), "job:job-1", []span{{"submit", time.Millisecond}, {"queue", qw},
			{"epoch[1]", wall + 1}, {"checkpoint", 6 * time.Millisecond}}},
		{"job recovered and resumed", job(
			Event{Kind: KindJobRecovered, Outcome: "queued", QueueWait: qw, Wall: time.Millisecond},
			state("queued", Event{}),
			state("running", Event{QueueWait: qw}),
			epoch(3),
			state("done", Event{}), // no registrar: nothing to register
		), "job:job-1", []span{{"journal-replay", qw}, {"recovery", time.Millisecond},
			{"queue", qw}, {"epoch[3]", wall + 3}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := NewEventLog(16)
			id := NewTraceID()
			for _, ev := range tc.events {
				ev.TraceID = id
				l.Emit(ev)
			}
			snap, ok := TraceView{l}.Find(id)
			if !ok {
				t.Fatal("trace not found")
			}
			var got []span
			for _, sp := range snap.Spans {
				got = append(got, span{sp.Name, sp.Duration})
			}
			if snap.Name != tc.trace || fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("trace %q spans %v, want %q %v", snap.Name, got, tc.trace, tc.want)
			}
		})
	}
}

func TestNilTracerAndTraceAreNoOps(t *testing.T) {
	var nilLog *EventLog
	if id := nilLog.Sample(); id != "" {
		t.Fatalf("nil log sampled ID %q", id)
	}
	for _, v := range []TraceView{nil, {nilLog}, {NewEventLog(4)}} {
		if got := v.Snapshot(); len(got) != 0 {
			t.Fatalf("view %v snapshot = %+v, want empty", v, got)
		}
		if _, ok := v.Find("abc"); ok {
			t.Fatalf("view %v found a trace", v)
		}
		if _, ok := v.Find(""); ok {
			t.Fatalf("view %v found the empty ID", v)
		}
	}
}

// TestTraceRingWraparound fills the event ring past capacity and checks
// that the view holds exactly the traces whose events survive, newest
// first.
func TestTraceRingWraparound(t *testing.T) {
	l := NewEventLog(4)
	at := time.Now()
	var ids []string
	for i := 0; i < 10; i++ {
		ids = append(ids, NewTraceID())
		l.Emit(okRequest(ids[i], at.Add(time.Duration(i)*time.Millisecond), time.Microsecond, time.Microsecond))
	}
	snap := TraceView{l}.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot len = %d, want 4", len(snap))
	}
	for i, s := range snap {
		if want := ids[9-i]; s.ID != want {
			t.Fatalf("snapshot[%d] = %s, want %s (newest first)", i, s.ID, want)
		}
	}
	if _, ok := (TraceView{l}).Find(ids[0]); ok {
		t.Fatal("overwritten trace still findable")
	}
	if _, ok := (TraceView{l}).Find(ids[9]); !ok {
		t.Fatal("newest trace not findable")
	}

	// Partial ring (no wraparound yet) yields only what exists.
	small := NewEventLog(8)
	small.Emit(okRequest("only", at, 0, 0))
	if snap := (TraceView{small}).Snapshot(); len(snap) != 1 || snap[0].ID != "only" {
		t.Fatalf("partial snapshot = %+v", snap)
	}
}

// TestTraceRingConcurrent races emitters against Snapshot/Find under
// -race: wraparound must not tear a derived trace.
func TestTraceRingConcurrent(t *testing.T) {
	l := NewEventLog(16)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				l.Emit(okRequest(l.Sample(), time.Now(), time.Microsecond, time.Microsecond))
			}
		}()
	}
	var readers sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, s := range (TraceView{l}).Snapshot() {
					if len(s.Spans) != 3 {
						t.Errorf("torn trace %+v", s)
						return
					}
					TraceView{l}.Find(s.ID)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if n := len(TraceView{l}.Snapshot()); n != 16 {
		t.Fatalf("view holds %d traces, want the ring's 16", n)
	}
}

func TestTraceContext(t *testing.T) {
	if _, ok := TraceIDFromContext(context.Background()); ok {
		t.Fatal("empty context carried a sampling decision")
	}
	if id, ok := TraceIDFromContext(WithTraceID(context.Background(), "")); !ok || id != "" {
		t.Fatalf("unrecorded decision = (%q, %v), want (\"\", true)", id, ok)
	}
	if id, ok := TraceIDFromContext(WithTraceID(context.Background(), "abc")); !ok || id != "abc" {
		t.Fatalf("decision = (%q, %v), want (abc, true)", id, ok)
	}
}

func TestTracesHandler(t *testing.T) {
	l := NewEventLog(4)
	id := NewTraceID()
	l.Emit(okRequest(id, time.Now(), time.Microsecond, time.Microsecond))
	srv := httptest.NewServer(TracesHandler(l, l, nil))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
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
	if len(body.Traces) != 1 {
		t.Fatalf("traces = %d, want 1 (dedup of identical logs)", len(body.Traces))
	}
	if body.Traces[0].ID != id || len(body.Traces[0].Spans) != 3 {
		t.Fatalf("trace = %+v", body.Traces[0])
	}

	// The wire format: {"traces":[{id,name,start,spans:[{name,start,duration_ns}]}]}.
	resp2, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var raw map[string][]map[string]any
	if err := json.NewDecoder(resp2.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	tr := raw["traces"][0]
	for _, k := range []string{"id", "name", "start", "spans"} {
		if _, ok := tr[k]; !ok {
			t.Fatalf("trace JSON missing %q: %v", k, tr)
		}
	}
	sp := tr["spans"].([]any)[1].(map[string]any)
	if sp["name"] != "batch-wait" || sp["duration_ns"] != float64(time.Microsecond) || sp["start"] == nil {
		t.Fatalf("span JSON = %v", sp)
	}
	if !strings.Contains(fmt.Sprint(tr["name"]), "predict") {
		t.Fatalf("trace name = %v", tr["name"])
	}
}

func TestPprofHandler(t *testing.T) {
	srv := httptest.NewServer(PprofHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("pprof index status %d", resp.StatusCode)
	}
}
