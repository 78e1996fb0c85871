package core

import (
	"bytes"
	"reflect"
	"testing"

	"eigenpro/internal/data"
	"eigenpro/internal/device"
	"eigenpro/internal/kernel"
)

// Config fields a persisted artifact deliberately does not carry. OnEpoch
// is a function; a run's spectrum is recomputed from its seed; a
// checkpoint takes the validation set from the ResumeTrainer caller.
var (
	runNotStored        = []string{"OnEpoch", "Spectrum"}
	checkpointNotStored = []string{"OnEpoch", "ValX", "ValLabels"}
)

// fullConfig sets every Config field to a non-zero value a trainer
// accepts, so a field added to Config without a persisted encoding fails
// TestConfigFieldsRoundTrip instead of silently resetting on resume.
func fullConfig(t *testing.T, ds, val *data.Dataset) Config {
	t.Helper()
	k := kernel.Gaussian{Sigma: 3}
	sp, err := EstimateSpectrum(k, ds.X, 32, 8, 9)
	if err != nil {
		t.Fatal(err)
	}
	dev := device.SimTitanXp()
	dev.ParallelOps = 1e5
	cfg := Config{
		Kernel:       k,
		Device:       dev,
		Method:       MethodEigenPro1,
		S:            32,
		QMax:         8,
		Q:            4,
		Batch:        16,
		Eta:          0.1,
		Epochs:       3,
		MaxIters:     1000,
		StopTrainMSE: 1e-12,
		ValX:         val.X,
		ValLabels:    val.Labels,
		Patience:     5,
		Seed:         9,
		Spectrum:     sp,
		OnEpoch:      func(EpochStats) {},
	}
	v := reflect.ValueOf(cfg)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("fullConfig leaves Config.%s zero", v.Type().Field(i).Name)
		}
	}
	return cfg
}

// assertConfigFields compares every Config field of got against want,
// skipping the named ones.
func assertConfigFields(t *testing.T, path string, want, got Config, skip []string) {
	t.Helper()
	wv, gv := reflect.ValueOf(want), reflect.ValueOf(got)
	for i := 0; i < wv.NumField(); i++ {
		name := wv.Type().Field(i).Name
		skipped := false
		for _, s := range skip {
			skipped = skipped || s == name
		}
		if skipped {
			continue
		}
		if !reflect.DeepEqual(wv.Field(i).Interface(), gv.Field(i).Interface()) {
			t.Errorf("%s: Config.%s does not round-trip: %#v became %#v",
				path, name, wv.Field(i).Interface(), gv.Field(i).Interface())
		}
	}
}

// TestConfigFieldsRoundTrip pins the one codec: every Config field
// survives SaveRun/LoadRun and Checkpoint/ResumeTrainer, or is named in
// that artifact's not-stored list.
func TestConfigFieldsRoundTrip(t *testing.T) {
	ds, val := data.SUSYLike(80, 9), data.SUSYLike(20, 10)
	cfg := fullConfig(t, ds, val)

	var buf bytes.Buffer
	if err := SaveRun(&buf, cfg, ds.X, ds.Y); err != nil {
		t.Fatal(err)
	}
	got, x, y, err := LoadRun(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertConfigFields(t, "SaveRun/LoadRun", cfg, got, runNotStored)
	if !reflect.DeepEqual(x, ds.X) || !reflect.DeepEqual(y, ds.Y) {
		t.Error("SaveRun/LoadRun: training data does not round-trip")
	}

	tr, err := NewTrainer(cfg, ds.X, ds.Y)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Step(); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := tr.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	res, err := ResumeTrainer(&buf, Config{}, ds.X, ds.Y)
	if err != nil {
		t.Fatal(err)
	}
	assertConfigFields(t, "Checkpoint/ResumeTrainer", cfg, res.st.cfg, checkpointNotStored)
}

// TestLoadRunAbsentFields pins the absent encodings: a config with no
// device and no validation set loads back with nil for both.
func TestLoadRunAbsentFields(t *testing.T) {
	ds := data.SUSYLike(20, 3)
	var buf bytes.Buffer
	if err := SaveRun(&buf, Config{Kernel: kernel.Laplacian{Sigma: 2}, Epochs: 1}, ds.X, ds.Y); err != nil {
		t.Fatal(err)
	}
	cfg, _, _, err := LoadRun(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Device != nil || cfg.ValX != nil || cfg.ValLabels != nil {
		t.Fatalf("absent fields decoded as device %v, ValX %v, labels %v", cfg.Device, cfg.ValX, cfg.ValLabels)
	}
	if err := SaveRun(&buf, Config{Kernel: unknownKernel{}}, ds.X, ds.Y); err == nil {
		t.Fatal("unserializable kernel must fail")
	}
}
