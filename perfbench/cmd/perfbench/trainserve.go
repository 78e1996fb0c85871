package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"eigenpro/internal/core"
	"eigenpro/internal/data"
	"eigenpro/internal/durable"
	"eigenpro/internal/kernel"
	"eigenpro/internal/mat"
	"eigenpro/perfbench/bench"
)

// train-while-serve: the real `eigenpro serve` command with default flags
// plus -state-dir and -model, an open-loop stream of multi-row HTTP
// predicts, and one SUSY-like training job submitted during the stream.
const (
	susyN       = 8000
	susyS       = 500
	susyEpochs  = 3
	susySigma   = 5
	httpRate    = 100.0
	httpRows    = 2
	httpWarmup  = time.Second
	jobTimeout  = 150 * time.Second
	serveStarts = 5
	jobName     = "susy"
)

// serverBin is the eigenpro binary run.sh builds from the checkout.
var serverBin = filepath.Join(outDir, "bin", "eigenpro")

// server is one running `eigenpro serve` process.
type server struct {
	cmd  *exec.Cmd
	base string
	logf *os.File
	done chan error
}

// startServer starts `eigenpro serve` on a free loopback port and returns
// once GET /readyz answers 200.
func startServer(dir, model string) (*server, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "server.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(serverBin, "serve", "-addr", addr, "-state-dir", filepath.Join(dir, "state"), "-model", model)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server dies with the benchmark, even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", serverBin, err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, logf: logf, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	deadline := time.Now().Add(60 * time.Second)
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case err := <-s.done:
			s.done <- err
			s.stop()
			return nil, fmt.Errorf("eigenpro serve exited before ready: %v (log %s)", err, logf.Name())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("eigenpro serve not ready after 60s")
		}
	}
}

// stop sends SIGTERM, waits for a graceful exit, kills after 20 s, and
// always waits for the process to end.
func (s *server) stop() {
	defer s.logf.Close()
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is fine
	select {
	case <-s.done:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(b))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// predictReply is the part of a POST /v1/predict reply the benchmark reads.
type predictReply struct {
	Y       [][]float64 `json:"y"`
	TraceID string      `json:"trace_id"`
}

// httpSample is one stream request as the client saw it.
type httpSample struct {
	bytes    int     // request plus reply body
	traceID  string  // the server's trace of the request
	clientMs float64 // from the actual send to the full reply
}

// jobInfo is the part of a job's status the benchmark reads.
type jobInfo struct {
	ID        string    `json:"id"`
	State     string    `json:"state"`
	Epoch     int       `json:"epoch"`
	Servable  bool      `json:"servable"`
	Error     string    `json:"error"`
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started"`
	Finished  time.Time `json:"finished"`
}

func trainWhileServe(e *env, res *bench.Result) error {
	if _, err := os.Stat(serverBin); err != nil {
		return fmt.Errorf("server binary: %w (run through perfbench/run.sh, which builds it)", err)
	}
	model, gob, pool, want, err := imagenetModel(e.seed)
	if err != nil {
		return err
	}
	modelPath := filepath.Join(e.tmp, "model.gob")
	if err := os.WriteFile(modelPath, gob, 0o644); err != nil {
		return err
	}
	// One request body per pool row: that row and the next.
	bodies := make([][]byte, poolRows)
	for i := range bodies {
		bodies[i], err = json.Marshal(map[string]any{"xs": [][]float64{pool.RowView(i), pool.RowView((i + 1) % poolRows)}})
		if err != nil {
			return err
		}
	}
	susy := data.SUSYLike(susyN, e.seed)
	rows := make([][]float64, susyN)
	for i := range rows {
		rows[i] = susy.X.RowView(i)
	}
	jobBody, err := json.Marshal(map[string]any{
		"name": jobName, "x": rows, "labels": susy.Labels, "classes": 2,
		"epochs": susyEpochs, "s": susyS, "sigma": susySigma, "seed": e.seed,
	})
	if err != nil {
		return err
	}

	// Set-up: process start until /readyz returns 200, several times; the
	// last server stays up.
	var srv *server
	setups := make([]float64, serveStarts)
	for i := range setups {
		res.Attempted++
		t0 := time.Now()
		s, err := startServer(filepath.Join(e.tmp, fmt.Sprintf("server-%d", i)), modelPath)
		if err != nil {
			return err
		}
		t1 := time.Now()
		e.tr.Record("eigenpro serve start", fmt.Sprintf("setup-%d", i), 0, t0, t1, nil)
		setups[i] = t1.Sub(t0).Seconds()
		if srv != nil {
			srv.stop()
		}
		srv = s
	}
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	stateDir := filepath.Join(e.tmp, fmt.Sprintf("server-%d", serveStarts-1), "state")

	nproc := runtime.NumCPU()
	client := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc},
		Timeout:   30 * time.Second,
	}
	defer client.CloseIdleConnections()
	ctl := &http.Client{Timeout: 30 * time.Second} // job control, off the stream's connections
	defer ctl.CloseIdleConnections()

	var (
		mu      sync.Mutex
		samples []httpSample
	)
	start := time.Now()
	sched := bench.Poisson(e.seed*1000+50, httpRate, jobTimeout, poolRows)
	stop := make(chan struct{})
	streamDone := make(chan []bench.Outcome, 1)
	go func() {
		streamDone <- bench.RunOpenLoop(start, sched, stop, func(i int, a bench.Arrival) error {
			t0 := time.Now()
			resp, err := client.Post(srv.base+"/v1/predict", "application/json", bytes.NewReader(bodies[a.Row]))
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			t1 := time.Now()
			e.tr.Record("http POST /v1/predict", fmt.Sprintf("stream-%d", i), 0, t0, t1, nil)
			if err != nil {
				return err
			}
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("predict: %s: %s", resp.Status, bytes.TrimSpace(body))
			}
			var rep predictReply
			if err := json.Unmarshal(body, &rep); err != nil {
				return err
			}
			if len(rep.Y) != httpRows || !sameBits(rep.Y[0], want[a.Row]) || !sameBits(rep.Y[1], want[(a.Row+1)%poolRows]) {
				return errWrongOutput
			}
			mu.Lock()
			samples = append(samples, httpSample{len(bodies[a.Row]) + len(body), rep.TraceID, ms(t1.Sub(t0))})
			mu.Unlock()
			return nil
		})
	}()
	// endStream stops the stream and waits for its requests; it runs once,
	// on the success path or, deferred, on an error path.
	var (
		endOnce sync.Once
		outs    []bench.Outcome
	)
	endStream := func() {
		endOnce.Do(func() {
			close(stop)
			outs = <-streamDone
		})
	}
	defer endStream()

	// The job: submitted after the stream warms up, polled until servable,
	// then predicted on until its model answers.
	time.Sleep(httpWarmup)
	res.Attempted++
	submit := time.Now()
	job, err := submitJob(ctl, srv.base, jobBody)
	e.tr.Record("http POST /train", "job", 0, submit, time.Now(), nil)
	if err != nil {
		return err
	}
	for !job.Servable {
		if job.State == "failed" || job.State == "cancelled" || time.Since(submit) > jobTimeout {
			return fmt.Errorf("job %s ended %s (%s) after %v", job.ID, job.State, job.Error, time.Since(submit))
		}
		time.Sleep(20 * time.Millisecond)
		t0 := time.Now()
		err := getJSON(ctl, srv.base+"/jobs/"+job.ID, &job)
		e.tr.Record("http GET /jobs/{id}", "job", 0, t0, time.Now(), nil)
		if err != nil {
			return err
		}
	}
	// The first good predict on the new model, checked against the model
	// the job persisted.
	trained, err := loadJobModel(stateDir, job.ID)
	if err != nil {
		return err
	}
	probe := susy.X.SliceRows(0, 2)
	for {
		t0 := time.Now()
		ok, err := predictNew(ctl, srv.base, probe.RowView(0), probe.RowView(1), trained)
		e.tr.Record("http POST /v1/predict (new model)", "job", 0, t0, time.Now(), nil)
		if err != nil {
			return err
		}
		if ok {
			break
		}
		if time.Since(submit) > jobTimeout {
			return fmt.Errorf("job %s servable but its model %q never answered", job.ID, jobName)
		}
		time.Sleep(5 * time.Millisecond)
	}
	servable := time.Now()
	endStream()
	rss, err := peakRSSMB(strconv.Itoa(srv.cmd.Process.Pid))
	if err != nil {
		return err
	}

	var during []bench.Outcome
	for _, o := range outs {
		res.Attempted++
		if o.Err != nil {
			res.Failed++
			e.log("predict error: %v", o.Err)
		}
		if !o.Due.Before(submit) && o.Due.Before(servable) {
			during = append(during, o)
		}
	}
	lat := bench.LatenciesMs(during)
	tts := servable.Sub(submit).Seconds()
	e.log("train-while-serve: job %s servable after %.3fs; %d predicts while it trained, %d in all",
		job.ID, tts, len(during), len(outs))
	lagP99 := bench.Percentile(bench.LagsMs(outs), 0.99)
	if lagP99 > lagLimitMs {
		res.Invalid = fmt.Sprintf("generator lag p99 %.1f ms exceeds %.0f ms", lagP99, lagLimitMs)
	}
	e2e(res, "setup_s", bench.Median(setups))
	e2e(res, "time_to_servable_s", tts)
	e2e(res, "http_p50_ms", bench.Percentile(lat, 0.50))
	e2e(res, "http_p99_ms", bench.Percentile(lat, 0.99))
	e2e(res, "peak_rss_mb", rss)
	res.Summary = map[string]bench.Metric{
		"setup_s":     {Value: bench.Median(setups), Unit: "s"},
		"lat_p50_ms":  {Value: res.EndToEnd["http_p50_ms"].Value, Unit: "ms"},
		"peak_rss_mb": {Value: rss, Unit: "MB"},
	}
	if !e.tr.On() {
		return nil
	}
	set(res, "gen.lag_p99_ms", lagP99, "")
	set(res, "gen.sent", float64(len(outs)), "")
	epochS, err := scrapeServer(ctl, srv.base, job, samples, res)
	if err != nil {
		return err
	}
	srv.stop()
	srv = nil

	// Replays at the job's shapes, in this process, after the server has
	// exited: the trainer set-up and step layers, checkpointing and the
	// journal, and the served model's predict path.
	cfg := core.Config{Kernel: kernel.Gaussian{Sigma: susySigma}, Epochs: susyEpochs, Seed: e.seed, S: susyS}
	r, err := func() (*core.Result, error) {
		t, err := core.NewTrainer(cfg, susy.X, susy.Y)
		if err != nil {
			return nil, err
		}
		durableReplays(e, res, t)
		return t.Result(), nil
	}()
	if err != nil {
		return err
	}
	// The trainer and its m x n batch buffer are garbage now; free them
	// before the replays allocate their own.
	runtime.GC()
	trainReplays(e, res, r, susy.X, e.seed, epochS)
	predictReplays(e, res, model, pool)
	return nil
}

// submitJob posts a training job and returns its status.
func submitJob(client *http.Client, base string, body []byte) (jobInfo, error) {
	var job jobInfo
	resp, err := client.Post(base+"/train", "application/json", bytes.NewReader(body))
	if err != nil {
		return job, fmt.Errorf("POST /train: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		return job, fmt.Errorf("POST /train: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		return job, fmt.Errorf("POST /train reply: %w", err)
	}
	return job, nil
}

// loadJobModel reads the model a finished job persisted in its state dir.
func loadJobModel(stateDir, id string) (*core.Model, error) {
	payload, err := durable.ReadFile(durable.OS{}, filepath.Join(stateDir, "jobs", id, "model.gob"))
	if err != nil {
		return nil, fmt.Errorf("read job model: %w", err)
	}
	return core.LoadModel(bytes.NewReader(payload))
}

// predictNew asks the server's new model for two rows and reports whether
// it answered with exactly what the persisted model predicts.
func predictNew(client *http.Client, base string, a, b []float64, m *core.Model) (bool, error) {
	body, err := json.Marshal(map[string]any{"model": jobName, "xs": [][]float64{a, b}})
	if err != nil {
		return false, err
	}
	resp, err := client.Post(base+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return false, nil // not registered yet
	}
	var rep predictReply
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return false, err
	}
	if len(rep.Y) != 2 {
		return false, fmt.Errorf("new model answered %d rows", len(rep.Y))
	}
	want := m.Predict(mat.StackRows([][]float64{a, b}, len(a)))
	if !sameBits(rep.Y[0], want.RowView(0)) || !sameBits(rep.Y[1], want.RowView(1)) {
		return false, fmt.Errorf("new model's reply differs from its persisted model")
	}
	return true, nil
}

// scrapeServer reads the server's own telemetry after the run: serving
// counters, request traces, job timings and fsyncs. It returns the job's
// median epoch time.
func scrapeServer(client *http.Client, base string, job jobInfo, samples []httpSample, res *bench.Result) (time.Duration, error) {
	var stats struct {
		Batches       int64
		MeanOccupancy float64
		Requests      int64
		Rejected      int64
		Expired       int64
		Shed          int64
	}
	if err := getJSON(client, base+"/v1/stats", &stats); err != nil {
		return 0, err
	}
	set(res, "serve.batches", float64(stats.Batches), "")
	set(res, "serve.occupancy_mean", stats.MeanOccupancy, "")
	set(res, "serve.useful_frac", float64(stats.Requests)/(stats.MeanOccupancy*float64(stats.Batches)), "")
	set(res, "serve.rejected", float64(stats.Rejected), "")
	set(res, "serve.expired", float64(stats.Expired), "")
	set(res, "serve.shed", float64(stats.Shed), "")

	// HTTP overhead: client time minus the server's own span time, for the
	// requests whose traces the server still retains.
	var traces struct {
		Traces []struct {
			ID    string    `json:"id"`
			Start time.Time `json:"start"`
			Spans []struct {
				Name  string        `json:"name"`
				Start time.Time     `json:"start"`
				Dur   time.Duration `json:"duration_ns"`
			} `json:"spans"`
		} `json:"traces"`
	}
	if err := getJSON(client, base+"/debug/traces?limit=100000", &traces); err != nil {
		return 0, err
	}
	byID := map[string]float64{}
	var wait, exec []float64
	for _, tr := range traces.Traces {
		end := tr.Start
		for _, sp := range tr.Spans {
			if e := sp.Start.Add(sp.Dur); e.After(end) {
				end = e
			}
			switch sp.Name {
			case "batch-wait":
				wait = append(wait, ms(sp.Dur))
			case "device-execute":
				exec = append(exec, ms(sp.Dur))
			}
		}
		byID[tr.ID] = ms(end.Sub(tr.Start))
	}
	var overhead []float64
	totalBytes := 0
	for _, s := range samples {
		totalBytes += s.bytes
		if srvMs, ok := byID[s.traceID]; ok {
			overhead = append(overhead, s.clientMs-srvMs)
		}
	}
	set(res, "serve.queue_wait_ms_p50", bench.Percentile(wait, 0.5), "")
	set(res, "serve.queue_wait_ms_p99", bench.Percentile(wait, 0.99), "")
	set(res, "serve.execute_ms_p50", bench.Percentile(exec, 0.5), "")
	set(res, "serve.execute_ms_p99", bench.Percentile(exec, 0.99), "")
	set(res, "serve.http_overhead_ms_p50", bench.Percentile(overhead, 0.5), "")
	set(res, "serve.http_bytes_per_req", float64(totalBytes)/float64(max(len(samples), 1)), "")

	// Job timings: queue wait, epoch boundaries from the train.epoch
	// events, and the last epoch until Finished.
	var events struct {
		Events []struct {
			Time  time.Time `json:"time"`
			Epoch int       `json:"epoch"`
		} `json:"events"`
	}
	if err := getJSON(client, base+"/debug/events?kind=train.epoch&job="+job.ID+"&limit=100000", &events); err != nil {
		return 0, err
	}
	var ends []time.Time
	for _, ev := range events.Events {
		ends = append(ends, ev.Time)
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i].Before(ends[j]) })
	if len(ends) == 0 {
		return 0, fmt.Errorf("no train.epoch events for %s", job.ID)
	}
	set(res, "jobs.queue_wait_s", job.Started.Sub(job.Submitted).Seconds(), "")
	set(res, "jobs.epoch_s", medianGap(ends).Seconds(), "")
	set(res, "jobs.register_s", job.Finished.Sub(ends[len(ends)-1]).Seconds(), "")

	fsyncs, err := scrapeCounter(client, base+"/metrics", "eigenpro_durable_fsyncs_total")
	if err != nil {
		return 0, err
	}
	set(res, "durable.fsyncs", fsyncs, "")
	return medianGap(ends), nil
}

// scrapeCounter reads one unlabelled series from a Prometheus text page.
func scrapeCounter(client *http.Client, url, name string) (float64, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, fmt.Errorf("%s: no series %s", url, name)
}

// durableReplays checkpoints a trainer at the job's shape through the
// public API and appends journal records of the job layer's size.
func durableReplays(e *env, res *bench.Result, t *core.Trainer) {
	dir := filepath.Join(e.tmp, "durable")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return
	}
	var buf bytes.Buffer
	if err := t.Checkpoint(&buf); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: checkpoint:", err)
		return
	}
	size := buf.Len()
	per := replay(e, res, "core.Trainer.Checkpoint+durable.WriteFile", "job", 5, 0, float64(size), func() {
		buf.Reset()
		if err := t.Checkpoint(&buf); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: checkpoint:", err)
			return
		}
		if err := durable.WriteFile(durable.OS{}, filepath.Join(dir, "checkpoint.gob"), buf.Bytes()); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: checkpoint write:", err)
		}
	})
	set(res, "durable.checkpoint_ms", ms(per), "")
	set(res, "durable.checkpoint_bytes", float64(size), "")
	j, _, err := durable.OpenJournal(durable.OS{}, filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: journal:", err)
		return
	}
	defer j.Close()
	rec := map[string]any{"op": "epoch", "id": "job-1", "epoch": 1, "time": time.Now()}
	line, _ := json.Marshal(rec) // a map of plain values always marshals
	per = replay(e, res, "durable.Journal.Append", "1 record", 50, 0, float64(len(line)+10), func() {
		if err := j.Append(rec); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: journal append:", err)
		}
	})
	set(res, "durable.journal_append_us", float64(per)/float64(time.Microsecond), "")
}
