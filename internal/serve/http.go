package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"

	"eigenpro/internal/mat"
	"eigenpro/internal/obs"
	"eigenpro/internal/obs/slo"
)

// Bounds on the serve HTTP surface, mirroring the /train hardening: both
// endpoints decode untrusted bodies, so size must be capped before JSON or
// gob materializes it. Variables rather than constants so tests can lower
// them without uploading hundreds of megabytes.
var (
	// maxPredictBodyBytes bounds the POST /v1/predict body. A legitimate
	// large batch (maxPredictRows MNIST-sized rows) stays well under it.
	maxPredictBodyBytes int64 = 8 << 20
	// maxModelBodyBytes bounds the PUT /v1/models/{name} gob body.
	maxModelBodyBytes int64 = 256 << 20
)

const (
	// maxPredictRows caps the rows of one predict request: each row fans
	// out as its own goroutine through the batcher.
	maxPredictRows = 4096
	// maxPredictFeatures caps the per-row feature dimension.
	maxPredictFeatures = 1 << 16
)

// Peer is a component sharing the process with a Server — the
// training-job manager in `eigenpro serve` — whose telemetry NewHandler
// merges into the ops routes and whose acceptance of work makes the
// process ready. *jobs.Manager satisfies it.
type Peer interface {
	Metrics() *obs.Registry
	Events() *obs.EventLog
	Accepting() bool
}

// NewHandler exposes a Server, and the telemetry of its peers, over HTTP
// JSON:
//
//	POST /v1/predict        {"model":"m","x":[...]} or {"model":"m","xs":[[...],...]}
//	GET  /v1/models         list registered model names
//	PUT  /v1/models/{name}  gob model body (core.SaveModel) → register/hot-swap
//	GET  /v1/stats          serving counters
//	GET  /metrics           metric exposition of the server's and peers'
//	                        registries (Prometheus text, or OpenMetrics with
//	                        exemplars under Accept: application/openmetrics-text)
//	GET  /debug/traces      recent span traces (JSON; ?id= and ?limit=)
//	GET  /debug/events      recent wide events (JSON; ?model=&job=&outcome=&since=&limit=)
//	GET  /debug/slo         Config.SLO's objectives, burn rates, budget, alert history (JSON)
//	GET  /debug/flight      snapshots of the flight recorder Config.SLO was
//	                        armed with (JSON; ?snapshot= and ?file=)
//	GET  /healthz           liveness
//	GET  /readyz            readiness (see readiness)
//
// Each row of a predict request is routed through the batcher individually,
// so concurrent HTTP clients (and the rows of one multi-row request)
// coalesce into shared device-saturating micro-batches. A predict request
// the event log's sampler records gets a trace ID, echoed in the X-Trace-Id
// response header and the trace_id response field; its spans are readable
// at /debug/traces.
func NewHandler(s *Server, peers ...Peer) http.Handler {
	regs := []*obs.Registry{s.Metrics()}
	logs := []*obs.EventLog{s.Events()}
	for _, p := range peers {
		regs = append(regs, p.Metrics())
		logs = append(logs, p.Events())
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/predict", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		handlePredict(s, w, r)
	})
	mux.HandleFunc("/v1/models", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		writeJSON(w, map[string]any{"models": s.Models()})
	})
	mux.HandleFunc("/v1/models/", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPut {
			httpError(w, http.StatusMethodNotAllowed, "PUT only")
			return
		}
		name := strings.TrimPrefix(r.URL.Path, "/v1/models/")
		if name == "" || strings.Contains(name, "/") {
			httpError(w, http.StatusBadRequest, "model name required")
			return
		}
		// The gob decoder may wrap the reader's error, so detect the
		// over-limit condition with a flagging reader rather than
		// errors.As on the decode error alone.
		body := &limitFlagReader{r: http.MaxBytesReader(w, r.Body, maxModelBodyBytes)}
		if err := s.LoadModel(name, body); err != nil {
			if body.tooBig {
				httpError(w, http.StatusRequestEntityTooLarge,
					"model body exceeds %d bytes", maxModelBodyBytes)
				return
			}
			httpError(w, http.StatusBadRequest, "load model: %v", err)
			return
		}
		writeJSON(w, map[string]any{"registered": name})
	})
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Stats())
	})
	mux.Handle("/metrics", obs.MetricsHandler(regs...))
	mux.Handle("/debug/traces", obs.TracesHandler(logs...))
	mux.Handle("/debug/events", obs.EventsHandler(logs...))
	mux.Handle("/debug/slo", slo.Handler(s.SLO()))
	mux.Handle("/debug/flight", obs.FlightHandler(s.SLO().Flight()))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		code, status := readiness(s, peers)
		w.WriteHeader(code)
		fmt.Fprintln(w, status)
	})
	return mux
}

// readiness is the process's /readyz rule, checked in order: a draining
// server is 503 "draining", so load balancers stop routing new traffic
// during graceful shutdown; with no registered model and no peer accepting
// work it is 503 "not ready"; a paging SLO objective degrades a ready
// process to 503 "degraded: slo page", so orchestrators stop routing new
// traffic at a server that is blowing its budget; otherwise 200 "ok".
func readiness(s *Server, peers []Peer) (int, string) {
	switch {
	case s.Draining():
		return http.StatusServiceUnavailable, "draining"
	case len(s.Models()) == 0 && !slices.ContainsFunc(peers, Peer.Accepting):
		return http.StatusServiceUnavailable, "not ready"
	case s.SLO().Paging():
		return http.StatusServiceUnavailable, "degraded: slo page"
	}
	return http.StatusOK, "ok"
}

// predictRequest is the POST /v1/predict body; X carries one query, XS a
// batch. Model defaults to "default".
type predictRequest struct {
	Model string      `json:"model,omitempty"`
	X     []float64   `json:"x,omitempty"`
	XS    [][]float64 `json:"xs,omitempty"`
}

// predictResponse is the POST /v1/predict reply: one output row and argmax
// label per query row. TraceID names the request's span trace at
// /debug/traces when the sampler recorded the request.
type predictResponse struct {
	Model   string      `json:"model"`
	Y       [][]float64 `json:"y"`
	Labels  []int       `json:"labels"`
	TraceID string      `json:"trace_id,omitempty"`
}

func handlePredict(s *Server, w http.ResponseWriter, r *http.Request) {
	var req predictRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxPredictBodyBytes)).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
			return
		}
		httpError(w, http.StatusBadRequest, "bad json: %v", err)
		return
	}
	if req.Model == "" {
		req.Model = "default"
	}
	rows := req.XS
	if len(req.X) > 0 {
		rows = append(rows, req.X)
	}
	if len(rows) == 0 {
		httpError(w, http.StatusBadRequest, "empty request: provide x or xs")
		return
	}
	if len(rows) > maxPredictRows {
		httpError(w, http.StatusRequestEntityTooLarge, "%d rows exceeds the %d-row cap", len(rows), maxPredictRows)
		return
	}
	for i, row := range rows {
		if len(row) > maxPredictFeatures {
			httpError(w, http.StatusRequestEntityTooLarge,
				"row %d has %d features, cap is %d", i, len(row), maxPredictFeatures)
			return
		}
	}
	resp := predictResponse{
		Model:  req.Model,
		Y:      make([][]float64, len(rows)),
		Labels: make([]int, len(rows)),
	}
	// The sampler decides once for the whole request: a recorded request
	// gets one trace ID shared by all its rows, carried to Server.Predict
	// through the context, and echoed in the header and body so the caller
	// can look its spans up at /debug/traces.
	traceID := s.cfg.Events.Sample()
	ctx := obs.WithTraceID(r.Context(), traceID)
	// Rows go through Server.Predict concurrently so they coalesce into
	// micro-batches with each other and with other in-flight requests.
	errs := make([]error, len(rows))
	var wg sync.WaitGroup
	for i, x := range rows {
		wg.Add(1)
		go func(i int, x []float64) {
			defer wg.Done()
			out, err := s.Predict(ctx, req.Model, x)
			if err != nil {
				errs[i] = err
				return
			}
			resp.Y[i] = out
			resp.Labels[i] = mat.ArgMaxRow(out)
		}(i, x)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			if traceID != "" && recorded(err) {
				w.Header().Set("X-Trace-Id", traceID)
			}
			httpError(w, statusFor(err), "%v", err)
			return
		}
	}
	if traceID != "" {
		resp.TraceID = traceID
		w.Header().Set("X-Trace-Id", traceID)
	}
	writeJSON(w, resp)
}

// recorded reports whether a failed Predict left a serve.request event
// behind, so its trace ID resolves at /debug/traces. A request that fails
// validation (unknown model, wrong feature count) records nothing.
func recorded(err error) bool {
	return errors.Is(err, ErrOverloaded) || errors.Is(err, ErrShed) ||
		errors.Is(err, ErrDeadlineExceeded) || errors.Is(err, ErrDraining)
}

// limitFlagReader records whether the wrapped reader (a MaxBytesReader)
// reported its limit, surviving any error wrapping by downstream decoders.
type limitFlagReader struct {
	r      io.Reader
	tooBig bool
}

func (l *limitFlagReader) Read(p []byte) (int, error) {
	n, err := l.r.Read(p)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			l.tooBig = true
		}
	}
	return n, err
}

// statusFor maps request-path errors to HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrShed):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrUnknownModel):
		return http.StatusNotFound
	case errors.Is(err, ErrDeadlineExceeded), errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrClosed), errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are already out; nothing useful left to do.
		_ = err
	}
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
