// Package jobs is the asynchronous training-job subsystem: submitted
// training configurations run on a bounded worker pool, report per-epoch
// progress, can be cancelled (taking a checkpoint at the next epoch
// boundary) and resumed bit-for-bit, and auto-register their finished
// models into a serving registry — closing the train → serve loop.
//
// The paper sizes the training mini-batch to the device; this package makes
// the training run itself a managed, observable unit the way a production
// service needs: core.Trainer supplies the interruptible epoch state
// machine, and the Manager adds queuing, status, cancellation, recovery,
// and deployment.
//
// Components:
//
//   - Manager: bounded worker pool over a job queue, submit/cancel/resume
//     lifecycle, per-job status and metrics (jobs.go)
//   - checkpoint-on-cancel: a cancelled job snapshots its trainer via
//     core.Trainer.Checkpoint so Resume continues the identical run
//   - Registrar: completed models auto-register under the job's model
//     name; serve.Server satisfies the interface, so a trained model is
//     immediately servable with no manual step
//   - HTTP JSON endpoints: POST /train, GET /jobs, GET /jobs/{id},
//     POST /jobs/{id}/cancel, POST /jobs/{id}/resume (http.go)
package jobs

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"eigenpro/internal/core"
	"eigenpro/internal/durable"
	"eigenpro/internal/mat"
	"eigenpro/internal/obs"
)

// Errors returned by the job lifecycle.
var (
	// ErrClosed reports an operation against a closed manager.
	ErrClosed = errors.New("jobs: manager closed")
	// ErrQueueFull reports that the pending-job queue is at capacity.
	ErrQueueFull = errors.New("jobs: queue full, job rejected")
	// ErrUnknownJob reports an unknown job id.
	ErrUnknownJob = errors.New("jobs: unknown job")
)

// Registrar receives finished models; serve.Server satisfies it, making a
// completed job's model immediately servable.
type Registrar interface {
	Register(name string, m *core.Model) error
}

// Config configures a Manager; zero values select the defaults.
type Config struct {
	// Workers bounds how many training jobs run concurrently; <= 0
	// selects DefaultWorkers. Training itself parallelizes across cores,
	// so more workers trade per-job latency for queue throughput.
	Workers int
	// QueueDepth bounds the number of queued (not yet running) jobs;
	// <= 0 selects DefaultQueueDepth.
	QueueDepth int
	// Registrar, when non-nil, receives each completed model under the
	// job's model name (Spec.Name, default the job id).
	Registrar Registrar
	// Metrics is the registry the job-lifecycle and per-job training
	// telemetry registers into; nil creates a private registry (readable
	// via Manager.Metrics). Pass a serving Server's registry to expose
	// everything from one /metrics endpoint.
	Metrics *obs.Registry
	// Events receives one wide obs.Event per job lifecycle transition
	// (kind "job.state") and per completed training epoch (kind
	// "train.epoch"), all carrying the job's trace ID: together they are
	// the job's record, read as a span trace (submit → queue → epoch[k] →
	// checkpoint/register) at /debug/traces. nil creates a private log.
	// Pass a serving Server's event log to read the whole system's history
	// from one /debug/events.
	Events *obs.EventLog
	// StateDir, when non-empty, selects persistent mode: every lifecycle
	// transition is appended to a checksummed journal under this
	// directory, running trainers checkpoint to disk at epoch boundaries,
	// and Open replays the journal on startup — re-registering finished
	// models and resuming interrupted jobs bit-for-bit from their last
	// durable checkpoint. Empty keeps the original in-memory manager.
	StateDir string
	// FS is the filesystem persistence goes through; nil selects the real
	// one (durable.OS). Chaos tests inject a fault.FS here to kill the
	// manager at deterministic crash points.
	FS durable.FS
	// CheckpointEvery checkpoints a running trainer every N completed
	// epochs in persistent mode; <= 0 selects every epoch. Raising it
	// trades restart re-work for fewer fsyncs on the training path.
	CheckpointEvery int
}

// Defaults for Config zero values.
const (
	DefaultWorkers    = 2
	DefaultQueueDepth = 64
)

// State is a job lifecycle phase.
type State string

// Job lifecycle states.
const (
	// StateQueued: submitted (or resumed), waiting for a worker.
	StateQueued State = "queued"
	// StateRunning: a worker is stepping the trainer.
	StateRunning State = "running"
	// StateCancelled: stopped at an epoch boundary; a checkpoint is held
	// when any epochs completed, so Resume continues the identical run.
	StateCancelled State = "cancelled"
	// StateDone: training finished; the model is registered if a
	// Registrar is configured.
	StateDone State = "done"
	// StateFailed: training or registration errored; see Info.Error.
	StateFailed State = "failed"
)

// terminal reports whether a state ends a run (Resume can restart only
// StateCancelled).
func terminal(s State) bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Spec describes one training job.
type Spec struct {
	// Name is the model name used for auto-registration; empty uses the
	// job id.
	Name string
	// Config is the training configuration (Kernel and Epochs required).
	// Its kernel must be a serializable family for checkpoint-on-cancel
	// to work.
	Config core.Config
	// X, Y are the training inputs and one-hot targets.
	X, Y *mat.Dense
}

// Info is a point-in-time snapshot of a job's status and metrics.
type Info struct {
	// ID is the manager-assigned job id.
	ID string `json:"id"`
	// Name is the model name the job registers on completion.
	Name string `json:"name"`
	// State is the lifecycle phase.
	State State `json:"state"`
	// Epoch counts completed epochs; Epochs is the target.
	Epoch  int `json:"epoch"`
	Epochs int `json:"epochs"`
	// TrainMSE is the last completed epoch's running train MSE.
	TrainMSE float64 `json:"train_mse"`
	// ValError is the last epoch's validation error (0 until the first
	// epoch of a run with a validation set completes; a legitimate 0 must
	// stay visible, so no omitempty).
	ValError float64 `json:"val_error"`
	// Iters counts optimizer iterations.
	Iters int `json:"iters"`
	// SimTime is the simulated device time spent so far.
	SimTime time.Duration `json:"sim_time_ns"`
	// Submitted/Started/Finished are lifecycle timestamps (zero until
	// reached). Finished covers registration, so Finished−Submitted is
	// the time-to-servable.
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started"`
	Finished  time.Time `json:"finished"`
	// Error describes a failure when State is StateFailed.
	Error string `json:"error,omitempty"`
	// Servable reports that the model was registered with the Registrar.
	Servable bool `json:"servable"`
	// Checkpointed reports that a resumable snapshot is held.
	Checkpointed bool `json:"checkpointed"`
	// Resumes counts how many times the job was resumed.
	Resumes int `json:"resumes"`
	// Recovered reports that this job was restored from the durable
	// journal by a restarted manager.
	Recovered bool `json:"recovered,omitempty"`
	// TraceID names the job's span trace at /debug/traces.
	TraceID string `json:"trace_id,omitempty"`
}

// job is the manager's mutable record for one submission.
type job struct {
	mu   sync.Mutex
	cond *sync.Cond

	spec Spec
	info Info

	// enq is when the job last entered the queue (submit or resume), the
	// start of the wait its running transition reports.
	enq time.Time

	// cancelRequested is latched by Cancel; cancelCh wakes the running
	// worker and is re-armed by Resume.
	cancelRequested bool
	cancelCh        chan struct{}

	// checkpoint holds the gob trainer snapshot taken on cancellation.
	checkpoint []byte
	// result holds the completed training result.
	result *core.Result
}

// set mutates the job's info under its lock and wakes waiters.
func (j *job) set(f func(*Info)) {
	j.mu.Lock()
	f(&j.info)
	j.cond.Broadcast()
	j.mu.Unlock()
}

// snapshot returns a copy of the job's info.
func (j *job) snapshot() Info {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.info
}

// Manager runs submitted training jobs on a bounded worker pool.
type Manager struct {
	cfg Config

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string
	seq    int
	closed bool

	queue chan *job
	done  chan struct{}
	wg    sync.WaitGroup

	// store is the durable persistence layer, nil outside persistent
	// mode; recoveredN counts jobs restored by Open's journal replay.
	store      *store
	recoveredN int

	// Lifecycle counters, registered in initMetrics.
	submitted *obs.Counter
	completed *obs.Counter
	failed    *obs.Counter
	cancelled *obs.Counter
	resumed   *obs.Counter
	recovered *obs.Counter
	// persistErrors counts tolerated durability failures: the job kept
	// running, but its latest state may not survive a crash.
	persistErrors *obs.Counter
}

// New starts a manager with the given configuration. Close stops the
// workers, checkpointing any running jobs. In persistent mode
// (Config.StateDir set) prefer Open, which reports recovery errors
// instead of panicking on them.
func New(cfg Config) *Manager {
	m, err := Open(cfg)
	if err != nil {
		// Only possible with a StateDir whose journal cannot be opened;
		// the in-memory construction below it cannot fail.
		panic(fmt.Sprintf("jobs: New: %v (use Open to handle state-dir errors)", err))
	}
	return m
}

// Open starts a manager with the given configuration. With
// Config.StateDir set it opens (creating if needed) the durable state
// directory, replays the job journal, re-registers finished models, and
// re-enqueues interrupted jobs before the workers start — so a restarted
// process resumes exactly where the crash left it.
func Open(cfg Config) (*Manager, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWorkers
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 1
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.Events == nil {
		cfg.Events = obs.NewEventLog(0)
	}
	m := &Manager{
		cfg:   cfg,
		jobs:  make(map[string]*job),
		queue: make(chan *job, cfg.QueueDepth),
		done:  make(chan struct{}),
	}
	m.initMetrics()
	if cfg.StateDir != "" {
		st, replay, err := openStore(cfg.FS, cfg.StateDir)
		if err != nil {
			return nil, err
		}
		m.store = st
		m.initPersistMetrics()
		// Recovery runs before the workers start: re-enqueued jobs park in
		// the buffered queue channel and begin the moment workers spin up.
		m.recover(replay)
	}
	m.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go m.worker()
	}
	return m, nil
}

// Submit validates and enqueues a training job, returning its id. The
// spec's data matrices are retained for the life of the job (they are what
// a checkpoint resume trains on).
func (m *Manager) Submit(spec Spec) (string, error) {
	if spec.Config.Kernel == nil {
		return "", fmt.Errorf("jobs: Spec.Config.Kernel is required")
	}
	if spec.Config.Epochs < 1 {
		return "", fmt.Errorf("jobs: Spec.Config.Epochs must be >= 1, got %d", spec.Config.Epochs)
	}
	if spec.X == nil || spec.Y == nil {
		return "", fmt.Errorf("jobs: Spec.X and Spec.Y are required")
	}
	if spec.X.Rows != spec.Y.Rows {
		return "", fmt.Errorf("jobs: %d samples with %d target rows", spec.X.Rows, spec.Y.Rows)
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return "", ErrClosed
	}
	m.seq++
	id := fmt.Sprintf("job-%d", m.seq)
	name := spec.Name
	if name == "" {
		name = id
	}
	now := time.Now()
	traceID := obs.NewTraceID()
	j := &job{
		spec:     spec,
		enq:      now,
		cancelCh: make(chan struct{}),
		info: Info{
			ID:        id,
			Name:      name,
			State:     StateQueued,
			Epochs:    spec.Config.Epochs,
			Submitted: now,
			TraceID:   traceID,
		},
	}
	j.cond = sync.NewCond(&j.mu)
	// Hold the new job's lock from the enqueue until "submitted" is
	// journalled: a worker that dequeues it at once blocks in run on
	// j.mu, so its "started" cannot precede "submitted". The order m.mu,
	// then j.mu, is the one Resume and Delete take.
	j.mu.Lock()
	// Enqueue while still holding the manager lock: Close sets closed
	// under the same lock before draining, so no job can slip into the
	// queue after the drain and sit in StateQueued forever. The send
	// cannot block — the queue channel's capacity is the admission bound.
	select {
	case m.queue <- j:
	default:
		j.mu.Unlock()
		m.mu.Unlock()
		return "", ErrQueueFull
	}
	m.jobs[id] = j
	m.order = append(m.order, id)
	// Persist the spec and journal the submission before releasing the
	// locks: once Submit returns the id, a crash-and-restart must be able
	// to reconstruct the job.
	if m.store != nil {
		if err := m.store.saveSpec(id, spec); err != nil {
			m.persistFailure(id, traceID, fmt.Errorf("save spec: %w", err))
		}
		m.journal(journalRecord{Type: recSubmitted, Job: id, Name: name}, traceID)
	}
	j.mu.Unlock()
	m.mu.Unlock()
	m.submitted.Inc()
	end := time.Now()
	m.stateEvent(id, traceID, StateQueued, obs.Event{Time: end, Wall: end.Sub(now)})
	return id, nil
}

// stateEvent emits one job.state wide event for a lifecycle transition.
// The new state is the event's Outcome, so /debug/events?outcome=failed
// surfaces failed jobs the same way outcome=shed surfaces shed requests.
// ev supplies the level, the error text, and the timing of the phase the
// transition ends (see obs.TraceView).
func (m *Manager) stateEvent(id, traceID string, state State, ev obs.Event) {
	ev.Kind, ev.Job, ev.Outcome, ev.TraceID = obs.KindJobState, id, string(state), traceID
	m.cfg.Events.Emit(ev)
}

// jobStateEvent is stateEvent reading the id and trace from the job
// record (both are immutable after Submit publishes the job).
func (m *Manager) jobStateEvent(j *job, state State, ev obs.Event) {
	m.stateEvent(j.info.ID, j.info.TraceID, state, ev)
}

// Job returns a snapshot of the job's status.
func (m *Manager) Job(id string) (Info, bool) {
	j, ok := m.lookup(id)
	if !ok {
		return Info{}, false
	}
	return j.snapshot(), true
}

// Jobs returns snapshots of every job in submission order.
func (m *Manager) Jobs() []Info {
	m.mu.Lock()
	js := make([]*job, 0, len(m.order))
	for _, id := range m.order {
		js = append(js, m.jobs[id])
	}
	m.mu.Unlock()
	out := make([]Info, len(js))
	for i, j := range js {
		out[i] = j.snapshot()
	}
	return out
}

// Model returns the trained model of a completed job.
func (m *Manager) Model(id string) (*core.Model, bool) {
	j, ok := m.lookup(id)
	if !ok {
		return nil, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.result == nil {
		return nil, false
	}
	return j.result.Model, true
}

// Cancel requests that the job stop. A queued job is cancelled
// immediately; a running job stops at its next epoch boundary, taking a
// checkpoint so Resume can continue the identical run. Cancelling a
// terminal job is an error.
func (m *Manager) Cancel(id string) error {
	j, ok := m.lookup(id)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.info.State {
	case StateQueued:
		j.cancelRequested = true
		j.info.State = StateCancelled
		m.cancelled.Inc()
		m.jobStateEvent(j, StateCancelled, obs.Event{Level: obs.LevelWarn})
		m.journal(journalRecord{Type: recCancelled, Job: id}, j.info.TraceID)
		j.cond.Broadcast()
		return nil
	case StateRunning:
		if !j.cancelRequested {
			j.cancelRequested = true
			close(j.cancelCh)
		}
		return nil
	default:
		return fmt.Errorf("jobs: cannot cancel job %q in state %q", id, j.info.State)
	}
}

// Resume re-enqueues a cancelled job. If the job holds a checkpoint it
// continues from the cancelled epoch boundary — reproducing the
// uninterrupted run bit for bit — otherwise it starts from scratch.
func (m *Manager) Resume(id string) error {
	// The whole transition happens under the manager lock (with the job
	// lock nested) so a concurrent Close cannot land a job in the queue
	// after its drain; see Submit.
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	j, ok := m.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.info.State != StateCancelled {
		return fmt.Errorf("jobs: cannot resume job %q in state %q", id, j.info.State)
	}
	select {
	case m.queue <- j:
	default:
		return ErrQueueFull
	}
	j.cancelRequested = false
	j.cancelCh = make(chan struct{})
	j.enq = time.Now()
	j.info.State = StateQueued
	j.info.Resumes++
	m.resumed.Inc()
	m.jobStateEvent(j, StateQueued, obs.Event{})
	m.journal(journalRecord{Type: recResumed, Job: id}, j.info.TraceID)
	j.cond.Broadcast()
	return nil
}

// Wait blocks until the job reaches a terminal state (done, failed, or
// cancelled) and returns its final snapshot.
func (m *Manager) Wait(id string) (Info, error) {
	j, ok := m.lookup(id)
	if !ok {
		return Info{}, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for !terminal(j.info.State) {
		j.cond.Wait()
	}
	return j.info, nil
}

// Delete removes a terminal (done, failed, or cancelled) job from the
// manager, releasing its training data, checkpoint, and model — the
// eviction path a long-running server needs, since the manager otherwise
// retains every job for status and resume. Non-terminal jobs must be
// cancelled first.
func (m *Manager) Delete(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	j.mu.Lock()
	state := j.info.State
	j.mu.Unlock()
	if !terminal(state) {
		return fmt.Errorf("jobs: cannot delete job %q in state %q", id, state)
	}
	delete(m.jobs, id)
	for i, oid := range m.order {
		if oid == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	// Evict the job's labeled training gauges with it.
	core.UnobserveTraining(m.cfg.Metrics, obs.L("job", id))
	if m.store != nil {
		if err := m.store.removeJob(id); err != nil {
			m.persistFailure(id, j.info.TraceID, fmt.Errorf("remove artifacts: %w", err))
		}
		m.journal(journalRecord{Type: recDeleted, Job: id}, j.info.TraceID)
	}
	return nil
}

// Close stops accepting jobs, signals the workers, and waits for them.
// Running jobs are checkpointed and marked cancelled at their next epoch
// boundary; queued jobs are marked cancelled. Close is idempotent.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	close(m.done)
	m.wg.Wait()
	for {
		select {
		case j := <-m.queue:
			cancelled := false
			j.set(func(i *Info) {
				if i.State == StateQueued {
					i.State = StateCancelled
					m.cancelled.Inc()
					cancelled = true
				}
			})
			if cancelled {
				m.jobStateEvent(j, StateCancelled, obs.Event{Level: obs.LevelWarn})
				// Journaled as interrupted, not cancelled: shutdown is the
				// system's choice, so a restarted manager re-enqueues the
				// job instead of waiting for a manual resume.
				snap := j.snapshot()
				m.journal(journalRecord{Type: recInterrupted, Job: snap.ID, Epoch: snap.Epoch}, snap.TraceID)
			}
		default:
			if m.store != nil {
				m.store.close()
			}
			return
		}
	}
}

func (m *Manager) lookup(id string) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// worker pulls jobs off the queue until the manager closes.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.done:
			return
		default:
		}
		select {
		case j := <-m.queue:
			m.run(j)
		case <-m.done:
			return
		}
	}
}

// run executes one job: build (or resume) the trainer, step it epoch by
// epoch publishing progress, honor cancellation/shutdown at epoch
// boundaries with a checkpoint, and register the finished model.
func (m *Manager) run(j *job) {
	j.mu.Lock()
	if j.info.State != StateQueued || j.cancelRequested {
		// Cancelled while queued (or marked by Close); nothing to run.
		if j.info.State == StateQueued {
			j.info.State = StateCancelled
			m.jobStateEvent(j, StateCancelled, obs.Event{Level: obs.LevelWarn})
			m.journal(journalRecord{Type: recCancelled, Job: j.info.ID}, j.info.TraceID)
		}
		j.cond.Broadcast()
		j.mu.Unlock()
		return
	}
	j.info.State = StateRunning
	now := time.Now()
	m.jobStateEvent(j, StateRunning, obs.Event{Time: now, QueueWait: now.Sub(j.enq)})
	m.journal(journalRecord{Type: recStarted, Job: j.info.ID}, j.info.TraceID)
	if j.info.Started.IsZero() {
		j.info.Started = now
	}
	// A prior cancellation may have left a checkpoint-failure note; this
	// run gets a clean slate.
	j.info.Error = ""
	id := j.info.ID
	spec := j.spec
	snapshot := j.checkpoint
	cancelCh := j.cancelCh
	j.cond.Broadcast()
	j.mu.Unlock()

	// The manager owns shutdown too: a closing manager interrupts the job
	// exactly like a cancel.
	var t *core.Trainer
	var err error
	if snapshot != nil {
		t, err = core.ResumeTrainer(bytes.NewReader(snapshot), spec.Config, spec.X, spec.Y)
	} else {
		t, err = core.NewTrainer(spec.Config, spec.X, spec.Y)
	}
	if err != nil {
		m.fail(j, err)
		return
	}
	// Per-epoch training telemetry lands in the manager's registry labeled
	// with the job id, and as one wide train.epoch event per epoch; a
	// resumed trainer's base keeps the first delta from re-counting
	// checkpointed totals. A user OnEpoch hook in the spec runs after
	// them, on the same stats.
	onEpoch := core.ChainEpochHooks(
		core.ObserveTraining(m.cfg.Metrics, core.ObserveTrainingBase(t.Result()), obs.L("job", id)),
		core.LogTraining(m.cfg.Events, id, j.info.TraceID, core.ObserveTrainingBase(t.Result())),
		spec.Config.OnEpoch,
	)
	for !t.Done() {
		stats, err := t.Step()
		if err != nil {
			m.fail(j, err)
			return
		}
		onEpoch(stats)
		j.set(func(i *Info) {
			i.Epoch = stats.Epoch
			i.TrainMSE = stats.TrainMSE
			if !math.IsNaN(stats.ValError) {
				i.ValError = stats.ValError
			}
			i.Iters = stats.Iters
			i.SimTime = stats.SimTime
		})
		if t.Done() {
			// A cancel racing the final epoch loses: the work is already
			// done, so the job completes and registers instead of parking
			// a fully-trained model as cancelled.
			break
		}
		// Persistent mode: seal the trainer state to disk at the epoch
		// boundary, so a kill -9 from here on loses at most the epochs
		// since the last checkpoint — and the journal record makes the
		// progress discoverable at recovery.
		if m.store != nil && stats.Epoch%m.cfg.CheckpointEvery == 0 {
			if err := m.store.saveCheckpoint(id, t); err != nil {
				m.persistFailure(id, j.info.TraceID, fmt.Errorf("epoch %d checkpoint: %w", stats.Epoch, err))
			} else {
				m.journal(journalRecord{Type: recEpoch, Job: id, Epoch: stats.Epoch, Checkpoint: true}, j.info.TraceID)
			}
		}
		select {
		case <-cancelCh:
			m.park(j, t, false)
			return
		case <-m.done:
			m.park(j, t, true)
			return
		default:
		}
	}

	res := t.Result()
	j.mu.Lock()
	j.result = res
	name := j.info.Name
	j.mu.Unlock()
	// Persist the finished model before anything acknowledges completion.
	// The "done" record is journaled only once the model is durably on
	// disk: if the persist fails (or a crash lands between them), the last
	// journal record is still an epoch checkpoint, so a restarted manager
	// re-runs the tail of the training — deterministically producing the
	// identical model — instead of recording a completion it cannot serve.
	modelDurable := false
	if m.store != nil {
		if err := m.store.saveModel(id, res.Model); err != nil {
			m.persistFailure(id, j.info.TraceID, fmt.Errorf("save model: %w", err))
		} else {
			modelDurable = true
		}
	}
	// The done transition reports the registration time in Wall.
	var done obs.Event
	if m.cfg.Registrar != nil {
		regStart := time.Now()
		if err := m.cfg.Registrar.Register(name, res.Model); err != nil {
			m.fail(j, fmt.Errorf("jobs: register model %q: %w", name, err))
			return
		}
		done.Time = time.Now()
		done.Wall = done.Time.Sub(regStart)
	}
	m.completed.Inc()
	j.set(func(i *Info) {
		i.State = StateDone
		i.Finished = time.Now()
		i.Servable = m.cfg.Registrar != nil
		i.Checkpointed = false
	})
	m.jobStateEvent(j, StateDone, done)
	if modelDurable {
		m.journal(journalRecord{Type: recDone, Job: id, Epoch: res.Epochs}, j.info.TraceID)
	}
}

// park checkpoints an interrupted trainer and marks the job cancelled.
// interrupted distinguishes a manager shutdown (journaled so recovery
// auto-resumes the job) from a user cancel (journaled so it stays
// cancelled until an explicit resume).
func (m *Manager) park(j *job, t *core.Trainer, interrupted bool) {
	ckptStart := time.Now()
	var buf bytes.Buffer
	err := t.Checkpoint(&buf)
	ckptEnd := time.Now()
	m.cancelled.Inc()
	j.mu.Lock()
	if err == nil {
		j.checkpoint = buf.Bytes()
		j.info.Checkpointed = true
	} else {
		// Unserializable kernel: the job can still be resumed from
		// scratch.
		j.checkpoint = nil
		j.info.Checkpointed = false
		j.info.Error = fmt.Sprintf("checkpoint: %v", err)
	}
	j.info.State = StateCancelled
	errText := j.info.Error
	id := j.info.ID
	epoch := j.info.Epoch
	ckpt := j.info.Checkpointed
	j.cond.Broadcast()
	j.mu.Unlock()
	m.jobStateEvent(j, StateCancelled, obs.Event{
		Level: obs.LevelWarn, Time: ckptEnd, Wall: ckptEnd.Sub(ckptStart), Err: errText,
	})
	if m.store != nil {
		if ckpt {
			if serr := m.store.saveCheckpointBytes(id, buf.Bytes()); serr != nil {
				m.persistFailure(id, j.info.TraceID, fmt.Errorf("park checkpoint: %w", serr))
				ckpt = false
			}
		}
		typ := recCancelled
		if interrupted {
			typ = recInterrupted
		}
		m.journal(journalRecord{Type: typ, Job: id, Epoch: epoch, Checkpoint: ckpt, Error: errText}, j.info.TraceID)
	}
}

// fail marks the job failed.
func (m *Manager) fail(j *job, err error) {
	m.failed.Inc()
	j.set(func(i *Info) {
		i.State = StateFailed
		i.Error = err.Error()
		i.Finished = time.Now()
	})
	m.jobStateEvent(j, StateFailed, obs.Event{Level: obs.LevelError, Err: err.Error()})
	snap := j.snapshot()
	m.journal(journalRecord{Type: recFailed, Job: snap.ID, Epoch: snap.Epoch, Error: snap.Error}, snap.TraceID)
}
