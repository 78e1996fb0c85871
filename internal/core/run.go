package core

import (
	"encoding/gob"
	"fmt"
	"io"

	"eigenpro/internal/device"
	"eigenpro/internal/mat"
)

// A training run is reproduced from two artifacts: its inputs (SaveRun)
// and, once it has made progress, a trainer snapshot (Trainer.Checkpoint).
// Both carry the run's configuration through the one ConfigWire layout
// below, so the set of persisted Config fields and their encoding is
// decided in one place.

// ConfigWire is the on-wire form of the persisted Config fields: the
// scalars that, with the spectrum and the device, determine the selected
// parameters and the optimization path. Kernel, ValX and ValLabels travel
// next to it in the enclosing wire struct; Spectrum is stored only by a
// checkpoint, and OnEpoch is never stored.
//
// The type is exported because gob drops unexported embedded structs on
// encode. Because gob matches fields by name and finds promoted fields on
// decode, the embedding also reads the older flat layouts that listed
// these fields directly.
type ConfigWire struct {
	Method       int
	S, QMax, Q   int
	Batch        int
	Eta          float64
	Epochs       int
	MaxIters     int
	StopTrainMSE float64
	Patience     int
	Seed         int64
	// Device is the zero value when the configuration had none.
	Device device.Device
}

// configWireOf captures cfg's persisted fields.
func configWireOf(cfg Config) ConfigWire {
	w := ConfigWire{
		Method:       int(cfg.Method),
		S:            cfg.S,
		QMax:         cfg.QMax,
		Q:            cfg.Q,
		Batch:        cfg.Batch,
		Eta:          cfg.Eta,
		Epochs:       cfg.Epochs,
		MaxIters:     cfg.MaxIters,
		StopTrainMSE: cfg.StopTrainMSE,
		Patience:     cfg.Patience,
		Seed:         cfg.Seed,
	}
	if cfg.Device != nil {
		w.Device = *cfg.Device
	}
	return w
}

// config rebuilds the persisted Config fields; a zero Device decodes as
// absent, so the trainer falls back to its default device.
func (w ConfigWire) config() Config {
	cfg := Config{
		Method:       Method(w.Method),
		S:            w.S,
		QMax:         w.QMax,
		Q:            w.Q,
		Batch:        w.Batch,
		Eta:          w.Eta,
		Epochs:       w.Epochs,
		MaxIters:     w.MaxIters,
		StopTrainMSE: w.StopTrainMSE,
		Patience:     w.Patience,
		Seed:         w.Seed,
	}
	if w.Device != (device.Device{}) {
		dev := w.Device
		cfg.Device = &dev
	}
	return cfg
}

// runWire is the on-wire layout of a training run's inputs. The kernel
// field names match the first (flat) spec layout so version-1 files still
// decode.
type runWire struct {
	Version      int
	KernelFamily string
	KernelSigma  float64
	ConfigWire
	X, Y denseWire
	// ValX is 0x0 when the configuration had no validation set.
	ValX      denseWire
	ValLabels []int
}

// runVersion is the current run layout; version 1 is the flat layout that
// listed the Config fields and HasDevice/HasValX flags directly.
const runVersion = 2

// SaveRun writes the inputs of a training run — cfg's kernel and persisted
// fields, its validation set, and the training data x, y — to w in gob
// format. cfg.Spectrum and cfg.OnEpoch are not stored. The kernel must be
// one of the serializable families (see SaveModel).
func SaveRun(w io.Writer, cfg Config, x, y *mat.Dense) error {
	spec, err := specOf(cfg.Kernel)
	if err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(runWire{
		Version:      runVersion,
		KernelFamily: spec.Family,
		KernelSigma:  spec.Sigma,
		ConfigWire:   configWireOf(cfg),
		X:            wireOf(x),
		Y:            wireOf(y),
		ValX:         wireOf(cfg.ValX),
		ValLabels:    cfg.ValLabels,
	})
}

// LoadRun reads a training run written by SaveRun, validating that the
// decoded matrices agree in shape.
func LoadRun(r io.Reader) (Config, *mat.Dense, *mat.Dense, error) {
	var w runWire
	if err := gob.NewDecoder(r).Decode(&w); err != nil {
		return Config{}, nil, nil, fmt.Errorf("core: LoadRun: %w", err)
	}
	if w.Version != 1 && w.Version != runVersion {
		return Config{}, nil, nil, fmt.Errorf("core: LoadRun: unsupported version %d", w.Version)
	}
	k, err := kernelSpec{Family: w.KernelFamily, Sigma: w.KernelSigma}.kernel()
	if err != nil {
		return Config{}, nil, nil, fmt.Errorf("core: LoadRun: %w", err)
	}
	x, err := w.X.dense()
	if err != nil {
		return Config{}, nil, nil, fmt.Errorf("core: LoadRun: %w", err)
	}
	y, err := w.Y.dense()
	if err != nil {
		return Config{}, nil, nil, fmt.Errorf("core: LoadRun: %w", err)
	}
	if x.Rows != y.Rows {
		return Config{}, nil, nil, fmt.Errorf("core: LoadRun: %d samples with %d target rows", x.Rows, y.Rows)
	}
	cfg := w.config()
	cfg.Kernel = k
	cfg.ValLabels = w.ValLabels
	if w.ValX.Rows != 0 || w.ValX.Cols != 0 {
		valX, err := w.ValX.dense()
		if err != nil {
			return Config{}, nil, nil, fmt.Errorf("core: LoadRun: %w", err)
		}
		if valX.Cols != x.Cols {
			return Config{}, nil, nil, fmt.Errorf("core: LoadRun: %d validation features, %d training features", valX.Cols, x.Cols)
		}
		if len(w.ValLabels) > 0 && len(w.ValLabels) != valX.Rows {
			return Config{}, nil, nil, fmt.Errorf("core: LoadRun: %d validation rows with %d labels", valX.Rows, len(w.ValLabels))
		}
		cfg.ValX = valX
	}
	return cfg, x, y, nil
}
