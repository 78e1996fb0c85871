package core

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"

	"eigenpro/internal/data"
	"eigenpro/internal/mat"
)

// procsCfg trains EigenPro 2 with a fixed batch of 128 on 300 rows, so each
// epoch runs two full batches and a ragged 44-row tail, all large enough for
// the matrix products to split across workers.
func procsCfg() Config {
	cfg := checkpointCfg(MethodEigenPro2)
	cfg.Epochs = 2
	cfg.Batch = 128
	return cfg
}

// trainAt trains cfg to completion with GOMAXPROCS set to procs.
func trainAt(t *testing.T, procs int, cfg Config, ds *data.Dataset) *mat.Dense {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return stepUninterrupted(t, cfg, ds).Result().Model.Alpha
}

func requireSameBits(t *testing.T, what string, got, want *mat.Dense) {
	t.Helper()
	for i, v := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
			t.Fatalf("%s: coefficient %d = %v, want %v", what, i, got.Data[i], v)
		}
	}
}

// TestTrainingBitIdenticalAcrossGOMAXPROCS pins that training does not
// depend on how many workers the matrix products split across.
func TestTrainingBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	cfg := procsCfg()
	ds := data.MNISTLike(300, 23)
	want := trainAt(t, 1, cfg, ds)
	for _, procs := range []int{2, 8} {
		requireSameBits(t, fmt.Sprintf("GOMAXPROCS=%d", procs), trainAt(t, procs, cfg, ds), want)
	}
}

// TestCheckpointResumeAcrossGOMAXPROCS checkpoints a run at GOMAXPROCS=1,
// resumes it at GOMAXPROCS=2, and requires the uninterrupted run's
// coefficients bit for bit.
func TestCheckpointResumeAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cfg := procsCfg()
	ds := data.MNISTLike(300, 29)
	want := trainAt(t, 2, cfg, ds)

	runtime.GOMAXPROCS(1)
	tr, err := NewTrainer(cfg, ds.X, ds.Y)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Step(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}

	runtime.GOMAXPROCS(2)
	res, err := ResumeTrainer(&buf, Config{}, ds.X, ds.Y)
	if err != nil {
		t.Fatal(err)
	}
	for !res.Done() {
		if _, err := res.Step(); err != nil {
			t.Fatal(err)
		}
	}
	requireSameBits(t, "resumed at GOMAXPROCS=2", res.Result().Model.Alpha, want)
}

// maxStepAllocs is the number of heap allocations of one Step at
// TestStepAllocs' shape (three iterations, one of them the ragged tail).
// The batch features, kernel matrix and K·α live in trainer-owned buffers,
// so what is left is small: the epoch's permutation, the tail's view
// headers, and per iteration the row norms, the function values the
// matrix products capture, and the preconditioner-correction products.
const maxStepAllocs = 55

// TestStepAllocs pins that Step reuses its per-batch buffers, the ragged
// tail batch included. testing.AllocsPerRun runs at GOMAXPROCS=1, so the
// count does not depend on the host.
func TestStepAllocs(t *testing.T) {
	cfg := checkpointCfg(MethodEigenPro2)
	cfg.Epochs = 100
	cfg.Batch = 25
	ds := data.MNISTLike(60, 31)
	tr, err := NewTrainer(cfg, ds.X, ds.Y)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := tr.Step(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs per Step: %v", allocs)
	if allocs > maxStepAllocs {
		t.Fatalf("one Step allocates %v times, want at most %d", allocs, maxStepAllocs)
	}
}
