package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"time"

	"eigenpro/internal/mat"
)

// Checkpointing snapshots a Trainer at an epoch boundary so an interrupted
// run can be resumed — in the same process (the job manager's
// cancel-and-resume path) or a later one — and reproduce the uninterrupted
// run bit for bit. The snapshot stores everything that is either mutable
// (coefficients, history, clock, early-stopping counters) or expensive to
// recompute (the Nyström spectrum); the analytically selected parameters
// are deterministic functions of the spectrum, the device model, and the
// workload shape, so they are recomputed on resume rather than stored. The
// shuffling RNG has no exportable state; its position is reproduced by
// replaying the per-epoch permutations consumed so far, which is exact
// because the trainer draws from it only at epoch boundaries.
//
// The training data itself is NOT stored: the caller must hand the same
// x, y matrices to ResumeTrainer, and the checkpoint records their shape to
// reject mismatches.

// checkpointWire is the on-wire layout of a Trainer snapshot.
type checkpointWire struct {
	Version int

	// Config fields (the non-serializable ValX/ValLabels/OnEpoch fields
	// are re-supplied by the ResumeTrainer caller), including the device.
	ConfigWire

	// Workload shape.
	N, D, L int

	// Expensive precomputation.
	Spectrum spectrumWire

	// Mutable trainer state at the epoch boundary.
	Alpha        denseWire
	Epoch        int
	Iters        int
	History      []EpochStats
	ClockElapsed int64 // time.Duration
	ClockOps     float64
	ClockIters   int64
	Wall         int64 // time.Duration
	BestVal      float64
	SinceBest    int
	Converged    bool
	Done         bool
}

// checkpointVersion is the current snapshot layout; version 1 listed the
// Config fields flat instead of embedding ConfigWire.
const checkpointVersion = 2

// Checkpoint writes a resumable snapshot of the trainer to w. It must be
// called between steps (the trainer only exists at epoch boundaries from
// the caller's point of view). The kernel must be one of the serializable
// families (see SaveModel).
func (t *Trainer) Checkpoint(w io.Writer) error {
	cfg := t.st.cfg
	cfg.Device = t.dev
	spWire, err := spectrumWireOf(t.st.sp)
	if err != nil {
		return fmt.Errorf("core: Checkpoint: %w", err)
	}
	wire := checkpointWire{
		Version:      checkpointVersion,
		ConfigWire:   configWireOf(cfg),
		N:            t.n,
		D:            t.d,
		L:            t.l,
		Spectrum:     spWire,
		Alpha:        wireOf(t.st.model.Alpha),
		Epoch:        t.epoch,
		Iters:        t.res.Iters,
		History:      t.res.History,
		ClockElapsed: int64(t.clock.Elapsed()),
		ClockOps:     t.clock.Ops(),
		ClockIters:   t.clock.Iterations(),
		Wall:         int64(t.wall),
		BestVal:      t.bestVal,
		SinceBest:    t.sinceBest,
		Converged:    t.res.Converged,
		Done:         t.done,
	}
	if err := gob.NewEncoder(w).Encode(wire); err != nil {
		return fmt.Errorf("core: Checkpoint: %w", err)
	}
	return nil
}

// ResumeTrainer reconstructs a Trainer from a checkpoint written by
// Trainer.Checkpoint. x and y must be the same matrices the original run
// trained on (the checkpoint stores only their shape); cfg contributes ONLY
// the fields a checkpoint cannot carry — ValX and ValLabels — and every
// other field is taken from the snapshot, so a resumed run continues under
// exactly the configuration it started with. Stepping the returned trainer
// to completion produces coefficients bit-identical to the uninterrupted
// run with the same seed.
func ResumeTrainer(r io.Reader, cfg Config, x, y *mat.Dense) (*Trainer, error) {
	var w checkpointWire
	if err := gob.NewDecoder(r).Decode(&w); err != nil {
		return nil, fmt.Errorf("core: ResumeTrainer: %w", err)
	}
	if w.Version != 1 && w.Version != checkpointVersion {
		return nil, fmt.Errorf("core: ResumeTrainer: unsupported version %d", w.Version)
	}
	sp, err := w.Spectrum.spectrum()
	if err != nil {
		return nil, fmt.Errorf("core: ResumeTrainer: %w", err)
	}
	if x == nil || y == nil {
		return nil, fmt.Errorf("core: ResumeTrainer: training data is required")
	}
	if x.Rows != w.N || x.Cols != w.D || y.Rows != w.N || y.Cols != w.L {
		return nil, fmt.Errorf("core: ResumeTrainer: data %dx%d/%dx%d does not match checkpointed %dx%d/%dx%d",
			x.Rows, x.Cols, y.Rows, y.Cols, w.N, w.D, w.N, w.L)
	}
	resumed := w.config()
	resumed.Kernel = sp.Kern
	resumed.Spectrum = sp
	resumed.ValX, resumed.ValLabels = cfg.ValX, cfg.ValLabels
	t, err := NewTrainer(resumed, x, y)
	if err != nil {
		return nil, fmt.Errorf("core: ResumeTrainer: %w", err)
	}
	alpha, err := w.Alpha.dense()
	if err != nil {
		return nil, fmt.Errorf("core: ResumeTrainer: %w", err)
	}
	if alpha.Rows != t.st.model.Alpha.Rows || alpha.Cols != t.st.model.Alpha.Cols {
		return nil, fmt.Errorf("core: ResumeTrainer: coefficients %dx%d, model wants %dx%d",
			alpha.Rows, alpha.Cols, t.st.model.Alpha.Rows, t.st.model.Alpha.Cols)
	}
	if w.Epoch < 0 || len(w.History) != w.Epoch {
		// The trainer appends exactly one history entry per completed
		// epoch; anything else is a corrupt snapshot.
		return nil, fmt.Errorf("core: ResumeTrainer: inconsistent epoch %d for %d history entries", w.Epoch, len(w.History))
	}
	if w.Epoch > w.Epochs {
		// Also bounds the RNG replay below: a corrupt epoch count must
		// error, not spin.
		return nil, fmt.Errorf("core: ResumeTrainer: epoch %d beyond budget %d", w.Epoch, w.Epochs)
	}
	copy(t.st.model.Alpha.Data, alpha.Data)
	t.epoch = w.Epoch
	t.done = w.Done
	t.bestVal = w.BestVal
	t.sinceBest = w.SinceBest
	t.wall = time.Duration(w.Wall)
	t.clock.Restore(time.Duration(w.ClockElapsed), w.ClockOps, w.ClockIters)
	t.res.Iters = w.Iters
	t.res.Epochs = w.Epoch
	t.res.History = append([]EpochStats(nil), w.History...)
	t.res.Converged = w.Converged
	if len(w.History) > 0 {
		t.res.FinalTrainMSE = w.History[len(w.History)-1].TrainMSE
	}
	// The shuffling RNG is reproduced by position: discard the permutations
	// the completed epochs consumed.
	for i := 0; i < w.Epoch; i++ {
		t.st.rng.Perm(x.Rows)
	}
	return t, nil
}
