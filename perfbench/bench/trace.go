package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Span is one timed call into a layer of the program, recorded by the
// benchmark around the call. Spans of one request share Req; Parent names
// the span that caused this one (0 for a root).
type Span struct {
	ID     uint64             `json:"id"`
	Parent uint64             `json:"parent,omitempty"`
	Req    string             `json:"req,omitempty"`
	Name   string             `json:"name"`
	Start  time.Duration      `json:"start_ns"`
	Dur    time.Duration      `json:"dur_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// Tracer keeps spans in memory until WriteFile. A disabled tracer records
// nothing.
type Tracer struct {
	on    bool
	epoch time.Time

	mu    sync.Mutex
	spans []Span
}

// NewTracer returns a tracer that records only when on.
func NewTracer(on bool) *Tracer { return &Tracer{on: on, epoch: time.Now()} }

// On reports whether the tracer records.
func (t *Tracer) On() bool { return t.on }

// Record stores a finished span and returns its id (0 when disabled).
func (t *Tracer) Record(name, req string, parent uint64, start, end time.Time, attrs map[string]float64) uint64 {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := uint64(len(t.spans) + 1)
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch), Dur: end.Sub(start), Attrs: attrs,
	})
	return id
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Len returns the number of recorded spans.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// WriteFile writes the spans as one JSON array.
func (t *Tracer) WriteFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// RecordCost measures what one Record call costs on this host, by timing
// n recordings into a scratch tracer. Multiplied by the spans a traced run
// recorded, it estimates the time tracing added to that run.
func RecordCost(n int) time.Duration {
	scratch := NewTracer(true)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		now := time.Now()
		scratch.Record("cost", "req", 0, now, now, nil)
	}
	return time.Since(t0) / time.Duration(n)
}
