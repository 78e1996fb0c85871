package jobs

// Persistent mode: with Config.StateDir set, the manager journals every
// lifecycle transition to an append-only checksummed WAL and seals job
// artifacts (spec, trainer checkpoint, finished model) to disk with
// atomic corruption-detected writes, so a kill -9 loses at most the
// epochs since the last checkpoint and a restarted manager resumes
// exactly — bit for bit — where the dead process left off.
//
// State-dir layout:
//
//	<state-dir>/journal.jsonl            lifecycle WAL (durable.Journal)
//	<state-dir>/jobs/<id>/spec.gob       submitted training spec (sealed)
//	<state-dir>/jobs/<id>/checkpoint.gob latest epoch-boundary trainer
//	                                     snapshot (sealed, atomically
//	                                     replaced at each checkpoint)
//	<state-dir>/jobs/<id>/model.gob      finished model (sealed)
//
// This package decides paths, sealing and the journal only; the payloads
// are encoded by core: spec.gob by core.SaveRun, checkpoint.gob by
// core.Trainer.Checkpoint, model.gob by core.SaveModel.
//
// Crash-consistency contract: the journal decides each job's *state*;
// the checkpoint file is the trusted *progress*. Because the checkpoint
// is replaced atomically and verified on read, replaying "the last state
// the journal proves" from "the newest checkpoint that verifies" is
// always safe — at worst it redoes work that deterministic training
// reproduces identically. The "done" record is appended only after the
// model is durably sealed, so completion is never claimed for a model
// that cannot be reloaded.
//
// Not in spec.gob (documented limits): Spec.Config.OnEpoch (a function),
// Spec.Config.Spectrum (recomputed deterministically from Seed; the
// in-flight spectrum rides inside the trainer checkpoint instead), and
// Spec.Name (recovered from the journal's "submitted" record).

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"eigenpro/internal/core"
	"eigenpro/internal/durable"
	"eigenpro/internal/obs"
)

// Journal record types, one per lifecycle transition.
const (
	recSubmitted   = "submitted"
	recStarted     = "started"
	recEpoch       = "epoch"
	recCancelled   = "cancelled"
	recInterrupted = "interrupted"
	recResumed     = "resumed"
	recDone        = "done"
	recFailed      = "failed"
	recDeleted     = "deleted"
)

// journalRecord is one JSON line in the WAL.
type journalRecord struct {
	Type string `json:"type"`
	Job  string `json:"job"`
	// Name rides only on "submitted" (immutable afterwards).
	Name string `json:"name,omitempty"`
	// Epoch is the completed-epoch count at the transition.
	Epoch int `json:"epoch,omitempty"`
	// Checkpoint reports that a sealed trainer snapshot accompanied the
	// record.
	Checkpoint bool `json:"checkpoint,omitempty"`
	// Error carries the failure (or checkpoint-failure) text.
	Error string `json:"error,omitempty"`
	// At is the transition wall time.
	At time.Time `json:"at"`
}

// journal appends one record to the WAL; a persistence failure is
// tolerated (the in-memory lifecycle proceeds) but counted and surfaced.
// No-op outside persistent mode, so call sites need no guards.
func (m *Manager) journal(rec journalRecord, traceID string) {
	if m.store == nil {
		return
	}
	rec.At = time.Now()
	if err := m.store.record(rec); err != nil {
		m.persistFailure(rec.Job, traceID, fmt.Errorf("journal %s: %w", rec.Type, err))
	}
}

// persistFailure counts a tolerated durability failure and emits the
// durable.error wide event. Training availability wins over durability:
// the job keeps running, the operator sees the gap.
func (m *Manager) persistFailure(id, traceID string, err error) {
	m.persistErrors.Inc()
	m.cfg.Events.Emit(obs.Event{
		Level:   obs.LevelError,
		Kind:    obs.KindDurableError,
		Job:     id,
		TraceID: traceID,
		Err:     err.Error(),
	})
}

// Recovered returns how many jobs this manager restored from the journal
// at startup (0 outside persistent mode).
func (m *Manager) Recovered() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recoveredN
}

// StateDir returns the durable state directory, or "" outside persistent
// mode.
func (m *Manager) StateDir() string { return m.cfg.StateDir }

// store wraps the state directory: the WAL plus sealed per-job artifact
// files, all through one durable.FS so fault injection covers every
// operation.
type store struct {
	fsys durable.FS
	dir  string

	mu sync.Mutex
	j  *durable.Journal
}

// openStore opens (creating if needed) the state directory and its
// journal, returning the replayed records.
func openStore(fsys durable.FS, dir string) (*store, durable.Replay, error) {
	if fsys == nil {
		fsys = durable.OS{}
	}
	if err := fsys.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		return nil, durable.Replay{}, fmt.Errorf("jobs: state dir %s: %w", dir, err)
	}
	j, replay, err := durable.OpenJournal(fsys, filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		return nil, replay, fmt.Errorf("jobs: %w", err)
	}
	return &store{fsys: fsys, dir: dir, j: j}, replay, nil
}

func (s *store) jobDir(id string) string { return filepath.Join(s.dir, "jobs", id) }

func (s *store) record(rec journalRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.j == nil {
		return os.ErrClosed
	}
	return s.j.Append(rec)
}

func (s *store) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.j != nil {
		s.j.Close()
		s.j = nil
	}
}

func (s *store) specPath(id string) string { return filepath.Join(s.jobDir(id), "spec.gob") }
func (s *store) ckptPath(id string) string { return filepath.Join(s.jobDir(id), "checkpoint.gob") }
func (s *store) modelPath(id string) string {
	return filepath.Join(s.jobDir(id), "model.gob")
}

// saveSpec seals the job's run inputs; core owns the encoding. The model
// name is not stored here: it rides on the journal's "submitted" record.
func (s *store) saveSpec(id string, spec Spec) error {
	if err := s.fsys.MkdirAll(s.jobDir(id), 0o755); err != nil {
		return err
	}
	return durable.WriteFileWith(s.fsys, s.specPath(id), func(w io.Writer) error {
		return core.SaveRun(w, spec.Config, spec.X, spec.Y)
	})
}

// loadSpec reads back a sealed spec; the caller restores Spec.Name from
// the journal.
func (s *store) loadSpec(id string) (Spec, error) {
	payload, err := durable.ReadFile(s.fsys, s.specPath(id))
	if err != nil {
		return Spec{}, err
	}
	cfg, x, y, err := core.LoadRun(bytes.NewReader(payload))
	if err != nil {
		return Spec{}, err
	}
	return Spec{Config: cfg, X: x, Y: y}, nil
}

func (s *store) saveCheckpoint(id string, t *core.Trainer) error {
	if err := s.fsys.MkdirAll(s.jobDir(id), 0o755); err != nil {
		return err
	}
	return durable.WriteFileWith(s.fsys, s.ckptPath(id), t.Checkpoint)
}

func (s *store) saveCheckpointBytes(id string, snapshot []byte) error {
	if err := s.fsys.MkdirAll(s.jobDir(id), 0o755); err != nil {
		return err
	}
	return durable.WriteFile(s.fsys, s.ckptPath(id), snapshot)
}

func (s *store) loadCheckpoint(id string) ([]byte, error) {
	return durable.ReadFile(s.fsys, s.ckptPath(id))
}

func (s *store) saveModel(id string, model *core.Model) error {
	if err := s.fsys.MkdirAll(s.jobDir(id), 0o755); err != nil {
		return err
	}
	return durable.WriteFileWith(s.fsys, s.modelPath(id), func(w io.Writer) error {
		return core.SaveModel(w, model)
	})
}

func (s *store) loadModel(id string) (*core.Model, error) {
	payload, err := durable.ReadFile(s.fsys, s.modelPath(id))
	if err != nil {
		return nil, err
	}
	return core.LoadModel(bytes.NewReader(payload))
}

func (s *store) removeJob(id string) error {
	return s.fsys.RemoveAll(s.jobDir(id))
}

// folded is one job's journal history collapsed to what recovery needs.
type folded struct {
	last      journalRecord
	name      string
	epoch     int
	resumes   int
	submitted time.Time
}

// recover rebuilds the job table from the journal replay. It runs from
// Open before the workers start, so re-enqueued jobs sit in the buffered
// queue channel until the pool spins up; no lock ordering issues exist
// yet, but the manager lock is still taken where invariants expect it.
func (m *Manager) recover(replay durable.Replay) {
	foldStart := time.Now()
	byJob := make(map[string]*folded)
	var order []string
	for _, raw := range replay.Records {
		var rec journalRecord
		if err := json.Unmarshal(raw, &rec); err != nil || rec.Job == "" {
			// The checksum passed but the payload is not one of ours —
			// a foreign or version-drifted record. Skip, surface.
			m.persistFailure("", "", fmt.Errorf("recovery: unintelligible journal record %.80q", raw))
			continue
		}
		f := byJob[rec.Job]
		if f == nil {
			f = &folded{submitted: rec.At}
			byJob[rec.Job] = f
			order = append(order, rec.Job)
		}
		if rec.Name != "" {
			f.name = rec.Name
		}
		if rec.Epoch > f.epoch {
			f.epoch = rec.Epoch
		}
		if rec.Type == recResumed {
			f.resumes++
		}
		f.last = rec
	}
	replayTime := time.Since(foldStart)
	if replay.Corrupt > 0 || replay.TruncatedTail {
		m.persistFailure("", "", fmt.Errorf(
			"recovery: journal damage survived: %d corrupt record(s), truncated tail %v",
			replay.Corrupt, replay.TruncatedTail))
	}
	for _, id := range order {
		f := byJob[id]
		if f.last.Type == recDeleted {
			continue
		}
		if n := idSeq(id); n > m.seq {
			m.seq = n
		}
		m.recoverJob(id, f, replayTime)
	}
}

// idSeq extracts N from a manager-issued "job-N" id so recovered ids are
// never reissued.
func idSeq(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "job-%d", &n); err == nil {
		return n
	}
	return 0
}

// recoverJob reconstructs one job from its folded journal history:
// terminal states are restored as records (done additionally reloads and
// re-registers its model), anything in flight — submitted, started,
// mid-epoch, interrupted by shutdown — is re-enqueued to continue from
// its newest verified checkpoint. The job.recovered event reports the
// journal replay that preceded it (QueueWait) and its own recovery (Wall).
func (m *Manager) recoverJob(id string, f *folded, replay time.Duration) {
	start := time.Now()
	name := f.name
	if name == "" {
		name = id
	}
	traceID := obs.NewTraceID()
	j := &job{
		cancelCh: make(chan struct{}),
		info: Info{
			ID:        id,
			Name:      name,
			Epoch:     f.epoch,
			Epochs:    f.epoch, // refined from the spec below when loaded
			Submitted: f.submitted,
			Resumes:   f.resumes,
			Recovered: true,
			TraceID:   traceID,
		},
	}
	j.cond = sync.NewCond(&j.mu)

	requeued := false
	switch f.last.Type {
	case recDone:
		model, err := m.store.loadModel(id)
		if err != nil {
			m.recoveryFail(j, fmt.Errorf("recovery: load model: %w", err))
			break
		}
		j.result = &core.Result{Model: model, Epochs: f.epoch}
		j.info.State = StateDone
		j.info.Finished = f.last.At
		if m.cfg.Registrar != nil {
			if err := m.cfg.Registrar.Register(name, model); err != nil {
				m.recoveryFail(j, fmt.Errorf("recovery: register model %q: %w", name, err))
				break
			}
			j.info.Servable = true
		}
	case recFailed:
		j.info.State = StateFailed
		j.info.Error = f.last.Error
		j.info.Finished = f.last.At
	case recCancelled:
		if !m.recoverSpec(j, id) {
			break
		}
		m.recoverCheckpoint(j, id)
		j.info.State = StateCancelled
		if f.last.Error != "" {
			j.info.Error = f.last.Error
		}
	default:
		// submitted | started | epoch | resumed | interrupted: the job was
		// in flight when the process died — put it back to work.
		if !m.recoverSpec(j, id) {
			break
		}
		m.recoverCheckpoint(j, id)
		j.info.State = StateQueued
		j.enq = time.Now()
		select {
		case m.queue <- j:
			j.info.Resumes++
			requeued = true
		default:
			// Queue full (possible only when QueueDepth shrank across the
			// restart): leave the job cancelled-with-checkpoint so a
			// manual resume can still continue it.
			j.info.State = StateCancelled
			m.persistFailure(id, traceID, errors.New("recovery: queue full, job left cancelled"))
		}
	}

	m.mu.Lock()
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.recoveredN++
	m.mu.Unlock()
	m.recovered.Inc()
	snap := j.snapshot()
	if requeued {
		m.journal(journalRecord{Type: recResumed, Job: id, Epoch: snap.Epoch, Checkpoint: snap.Checkpointed}, traceID)
	}
	now := time.Now()
	m.cfg.Events.Emit(obs.Event{
		Time:      now,
		Level:     obs.LevelInfo,
		Kind:      obs.KindJobRecovered,
		Job:       id,
		Outcome:   string(snap.State),
		TraceID:   traceID,
		Epoch:     snap.Epoch,
		QueueWait: replay,
		Wall:      now.Sub(start),
		Err:       snap.Error,
	})
	if requeued {
		m.stateEvent(id, traceID, StateQueued, obs.Event{})
	}
}

// recoverSpec loads the job's sealed spec; on failure the job is marked
// failed with the recovery error and false is returned.
func (m *Manager) recoverSpec(j *job, id string) bool {
	spec, err := m.store.loadSpec(id)
	if err != nil {
		m.recoveryFail(j, fmt.Errorf("recovery: load spec: %w", err))
		return false
	}
	spec.Name = j.info.Name
	j.spec = spec
	j.info.Epochs = spec.Config.Epochs
	return true
}

// recoverCheckpoint loads the newest verified checkpoint if one exists.
// A corrupt checkpoint is surfaced and skipped — the job restarts from
// scratch (deterministically reaching the same result) rather than ever
// loading torn state.
func (m *Manager) recoverCheckpoint(j *job, id string) {
	snapshot, err := m.store.loadCheckpoint(id)
	switch {
	case err == nil:
		j.checkpoint = snapshot
		j.info.Checkpointed = true
	case os.IsNotExist(err):
		// Never checkpointed; nothing to restore.
	default:
		m.persistFailure(id, j.info.TraceID, fmt.Errorf("recovery: checkpoint discarded: %w", err))
	}
}

// recoveryFail marks a job failed during recovery and surfaces the
// durability error behind it.
func (m *Manager) recoveryFail(j *job, err error) {
	m.failed.Inc()
	j.info.State = StateFailed
	j.info.Error = err.Error()
	j.info.Finished = time.Now()
	m.persistFailure(j.info.ID, j.info.TraceID, err)
}
