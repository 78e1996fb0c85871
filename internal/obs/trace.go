package obs

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// Span is one named interval inside a trace.
type Span struct {
	// Name identifies the stage, e.g. "batch-wait" or "epoch[3]".
	Name string `json:"name"`
	// Start is the span's wall-clock start.
	Start time.Time `json:"start"`
	// Duration is the span's length.
	Duration time.Duration `json:"duration_ns"`
}

// TraceSnapshot is one request's (or job's) recorded lifetime as
// /debug/traces serves it: an ID, a name, and its spans in start order.
type TraceSnapshot struct {
	ID    string    `json:"id"`
	Name  string    `json:"name"`
	Start time.Time `json:"start"`
	Spans []Span    `json:"spans"`
}

// TraceView reads span traces out of wide-event logs. It holds no records
// of its own: the events sharing a trace ID form one trace, and every span
// is derived from one event's timing fields, so a trace stays readable
// exactly as long as its events stay in their ring. Nil and repeated logs
// are skipped.
//
// The spans each event yields:
//
//	serve.request  refused at admission (rejected, shed, draining): one span
//	               named by the outcome over QueueWait. Otherwise an
//	               "enqueue" instant, then either a span named by the
//	               outcome over QueueWait (reaped in the queue: expired,
//	               abandoned) or "batch-wait" over QueueWait followed by
//	               "device-execute" (an abandoned request: the outcome) over
//	               DeviceTime
//	train.epoch    "epoch[k]" over Wall
//	job.state      queued: "submit" over Wall; running: "queue" over
//	               QueueWait; done: "register" over Wall; cancelled:
//	               "checkpoint" over Wall (each only when non-zero)
//	job.recovered  "journal-replay" over QueueWait, then "recovery" over Wall
//
// Each span ends where the next begins and the last ends at the event's
// Time, which the emitters set to the instant the recorded work ended.
type TraceView []*EventLog

// Snapshot returns every trace the logs still retain, newest first.
func (v TraceView) Snapshot() []TraceSnapshot { return v.collect("") }

// Find returns the trace with the given ID.
func (v TraceView) Find(id string) (TraceSnapshot, bool) {
	if id == "" {
		return TraceSnapshot{}, false
	}
	if ts := v.collect(id); len(ts) > 0 {
		return ts[0], true
	}
	return TraceSnapshot{}, false
}

// collect groups the retained events carrying a trace ID (only the given
// one when non-empty) into traces, newest first.
func (v TraceView) collect(id string) []TraceSnapshot {
	byID := map[string]int{}
	var groups [][]*Event // per trace, newest event first
	for _, l := range dedupLogs(v) {
		l.scan(EventQuery{}, func(ev *Event) bool {
			if ev.TraceID == "" || id != "" && ev.TraceID != id {
				return true
			}
			i, ok := byID[ev.TraceID]
			if !ok {
				i = len(groups)
				byID[ev.TraceID] = i
				groups = append(groups, nil)
			}
			groups[i] = append(groups[i], ev)
			return true
		})
	}
	out := make([]TraceSnapshot, len(groups))
	for i, evs := range groups {
		tr := &out[i]
		oldest := evs[len(evs)-1]
		*tr = TraceSnapshot{ID: oldest.TraceID, Name: traceName(oldest), Start: oldest.Time, Spans: []Span{}}
		// Oldest event first, so spans starting together keep the order
		// the work happened in.
		for j := len(evs) - 1; j >= 0; j-- {
			tr.Spans = appendSpans(tr.Spans, evs[j])
			if evs[j].Time.Before(tr.Start) {
				tr.Start = evs[j].Time
			}
		}
		sort.SliceStable(tr.Spans, func(a, b int) bool { return tr.Spans[a].Start.Before(tr.Spans[b].Start) })
		if len(tr.Spans) > 0 && tr.Spans[0].Start.Before(tr.Start) {
			tr.Start = tr.Spans[0].Start
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Start.After(out[b].Start) })
	return out
}

// traceName names a trace after the subject of one of its events: a
// training job, or else a served request.
func traceName(ev *Event) string {
	if ev.Job != "" {
		return "job:" + ev.Job
	}
	return "predict"
}

// appendSpans appends the spans one event yields (see TraceView).
func appendSpans(spans []Span, ev *Event) []Span {
	// chain lays durations end to end so the last one ends at ev.Time.
	chain := func(parts ...Span) []Span {
		at := ev.Time
		for i := len(parts) - 1; i >= 0; i-- {
			at = at.Add(-parts[i].Duration)
			parts[i].Start = at
		}
		return append(spans, parts...)
	}
	switch ev.Kind {
	case KindServeRequest:
		switch {
		case ev.Outcome == "rejected" || ev.Outcome == "shed" || ev.Outcome == "draining":
			return chain(Span{Name: ev.Outcome, Duration: ev.QueueWait})
		case ev.BatchID == 0:
			return chain(Span{Name: "enqueue"}, Span{Name: ev.Outcome, Duration: ev.QueueWait})
		}
		exec := "device-execute"
		if ev.Outcome != "ok" {
			exec = ev.Outcome
		}
		return chain(Span{Name: "enqueue"}, Span{Name: "batch-wait", Duration: ev.QueueWait},
			Span{Name: exec, Duration: ev.DeviceTime})
	case KindTrainEpoch:
		return chain(Span{Name: "epoch[" + strconv.Itoa(ev.Epoch) + "]", Duration: ev.Wall})
	case KindJobRecovered:
		return chain(Span{Name: "journal-replay", Duration: ev.QueueWait}, Span{Name: "recovery", Duration: ev.Wall})
	case KindJobState:
		name, d := "", ev.Wall
		switch ev.Outcome {
		case "queued":
			name = "submit"
		case "running":
			name, d = "queue", ev.QueueWait
		case "done":
			name = "register"
		case "cancelled":
			name = "checkpoint"
		}
		if name != "" && d > 0 {
			return chain(Span{Name: name, Duration: d})
		}
	}
	return spans
}

// dedupLogs drops nil and repeated logs, keeping first-seen order.
func dedupLogs(logs []*EventLog) []*EventLog {
	seen := make(map[*EventLog]bool, len(logs))
	out := make([]*EventLog, 0, len(logs))
	for _, l := range logs {
		if l == nil || seen[l] {
			continue
		}
		seen[l] = true
		out = append(out, l)
	}
	return out
}

// traceSeq and traceSalt make IDs unique across logs within a process and
// unlikely to collide across processes.
var (
	traceSeq  atomic.Uint64
	traceSalt = uint64(time.Now().UnixNano())
)

// NewTraceID returns a 16-hex-digit ID (splitmix64 over a process-salted
// sequence — unique in-process, no locks).
func NewTraceID() string {
	z := traceSeq.Add(1)*0x9e3779b97f4a7c15 ^ traceSalt
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return fmt.Sprintf("%016x", z^(z>>31))
}

// ctxKey keys the trace ID stored in a context.
type ctxKey struct{}

// WithTraceID returns ctx carrying a sampling decision made upstream (by
// an HTTP handler, say): the request's trace ID, or "" for a request the
// sampler left unrecorded. Everything downstream records under that
// decision instead of sampling again.
func WithTraceID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, ctxKey{}, id)
}

// TraceIDFromContext returns the decision ctx carries; ok is false when
// no upstream decision was made.
func TraceIDFromContext(ctx context.Context) (id string, ok bool) {
	id, ok = ctx.Value(ctxKey{}).(string)
	return id, ok
}
