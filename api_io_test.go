package eigenpro

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestPublicDataIO(t *testing.T) {
	ds := SUSYLike(50, 4)
	var csv bytes.Buffer
	if err := WriteCSV(&csv, ds); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&csv, "susy")
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != ds.N() || back.Dim() != ds.Dim() {
		t.Fatal("csv round trip changed shape")
	}

	var lib bytes.Buffer
	if err := WriteLibSVM(&lib, ds); err != nil {
		t.Fatal(err)
	}
	back2, err := ReadLibSVM(&lib, "susy", ds.Dim())
	if err != nil {
		t.Fatal(err)
	}
	if back2.N() != ds.N() {
		t.Fatal("libsvm round trip changed size")
	}
	if _, err := ReadLibSVM(strings.NewReader("garbage"), "x", 0); err == nil {
		t.Fatal("garbage must error")
	}
}

func TestPublicSerialization(t *testing.T) {
	ds := SUSYLike(120, 5)
	res, err := Train(Config{Kernel: LaplacianKernel(4), Epochs: 2, Seed: 5}, ds.X, ds.Y)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveModel(&buf, res.Model); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if MSE(loaded.Predict(ds.X), res.Model.Predict(ds.X)) != 0 {
		t.Fatal("reloaded model predicts differently")
	}

	var sbuf bytes.Buffer
	if err := SaveSpectrum(&sbuf, res.Spectrum); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSpectrum(&sbuf); err != nil {
		t.Fatal(err)
	}
}

func TestPublicDeviceGroup(t *testing.T) {
	g, err := NewDeviceGroup(SimTitanXp(), 4, DeviceGroupOptions{
		SyncOverhead: 100 * time.Microsecond, ScalingEfficiency: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.ParallelOps <= SimTitanXp().ParallelOps {
		t.Fatal("group capacity did not grow")
	}
}

func TestPublicBandwidthSelection(t *testing.T) {
	ds := SUSYLike(200, 7)
	ladder := GaussianBandwidthLadder(ds.X, 3, 7)
	if len(ladder) != 3 {
		t.Fatalf("ladder size %d", len(ladder))
	}
	best, scored, err := SelectBandwidth(ladder, ds.X, ds.Y, ds.Labels,
		BandwidthConfig{Subsample: 120, Folds: 2, Epochs: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if best == nil || len(scored) != 3 {
		t.Fatal("selection incomplete")
	}
}

func TestPublicMaternKernels(t *testing.T) {
	x := []float64{0, 1}
	if Matern32Kernel(2).Eval(x, x) != 1 || Matern52Kernel(2).Eval(x, x) != 1 {
		t.Fatal("matern kernels not normalized")
	}
}
