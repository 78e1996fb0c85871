package core

import (
	"bytes"
	"testing"

	"eigenpro/internal/data"
	"eigenpro/internal/kernel"
)

// fuzzModelBytes returns a valid SaveModel encoding to seed the corpus.
func fuzzModelBytes(tb testing.TB) []byte {
	tb.Helper()
	ds := data.SUSYLike(16, 1)
	m := NewModel(kernel.Gaussian{Sigma: 2}, ds.X, ds.Y.Cols)
	copy(m.Alpha.Data, ds.Y.Data)
	var buf bytes.Buffer
	if err := SaveModel(&buf, m); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// fuzzSpectrumBytes returns a valid SaveSpectrum encoding.
func fuzzSpectrumBytes(tb testing.TB) []byte {
	tb.Helper()
	ds := data.SUSYLike(32, 2)
	sp, err := EstimateSpectrum(kernel.Laplacian{Sigma: 2}, ds.X, 16, 4, 3)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveSpectrum(&buf, sp); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLoadModel hardens the gob deployment path against truncated and
// corrupt artifacts: LoadModel must return an error, never panic, and any
// accepted model must satisfy its shape invariants.
func FuzzLoadModel(f *testing.F) {
	valid := fuzzModelBytes(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:1])
	f.Add([]byte{})
	f.Add([]byte("not gob data"))
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)/2] ^= 0xff
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := LoadModel(bytes.NewReader(b))
		if err != nil {
			return
		}
		if m.Kern == nil || m.X == nil || m.Alpha == nil {
			t.Fatal("accepted model with nil pieces")
		}
		if m.X.Rows != m.Alpha.Rows {
			t.Fatalf("accepted model with %d centers, %d coefficient rows", m.X.Rows, m.Alpha.Rows)
		}
		if len(m.X.Data) != m.X.Rows*m.X.Cols || len(m.Alpha.Data) != m.Alpha.Rows*m.Alpha.Cols {
			t.Fatal("accepted model with inconsistent backing storage")
		}
	})
}

// FuzzLoadSpectrum is the same hardening for the spectrum artifact.
func FuzzLoadSpectrum(f *testing.F) {
	valid := fuzzSpectrumBytes(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/3])
	f.Add([]byte{})
	f.Add([]byte("junk"))
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)/3] ^= 0xff
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, b []byte) {
		sp, err := LoadSpectrum(bytes.NewReader(b))
		if err != nil {
			return
		}
		if sp.Kern == nil || sp.Xsub == nil || sp.V == nil {
			t.Fatal("accepted spectrum with nil pieces")
		}
		if len(sp.SubIdx) != sp.Xsub.Rows || sp.V.Rows != sp.Xsub.Rows || len(sp.Sigma) != sp.V.Cols {
			t.Fatalf("accepted spectrum with inconsistent shapes: %d idx, %dx%d xsub, %dx%d v, %d sigma",
				len(sp.SubIdx), sp.Xsub.Rows, sp.Xsub.Cols, sp.V.Rows, sp.V.Cols, len(sp.Sigma))
		}
	})
}

// FuzzResumeTrainer hardens checkpoint decoding the same way: arbitrary
// bytes must error cleanly, never panic.
func FuzzResumeTrainer(f *testing.F) {
	ds := data.SUSYLike(40, 4)
	tr, err := NewTrainer(Config{Kernel: kernel.Gaussian{Sigma: 2}, Epochs: 2, S: 16, Seed: 4}, ds.X, ds.Y)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := tr.Step(); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Checkpoint(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)/4] ^= 0xff
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, b []byte) {
		res, err := ResumeTrainer(bytes.NewReader(b), Config{}, ds.X, ds.Y)
		if err != nil {
			return
		}
		// A resumable trainer must be steppable (or already done) without
		// panicking.
		if !res.Done() {
			if _, err := res.Step(); err != nil && err != ErrTrainingComplete {
				// Divergence from fuzzed coefficients is a clean error.
				return
			}
		}
	})
}

// FuzzLoadRun hardens the run-spec decoder: arbitrary bytes must error or
// yield matrices whose shapes agree, never panic.
func FuzzLoadRun(f *testing.F) {
	ds, val := data.SUSYLike(24, 5), data.SUSYLike(6, 6)
	cfg := Config{Kernel: kernel.Gaussian{Sigma: 2}, Epochs: 2, S: 8, Seed: 5, ValX: val.X, ValLabels: val.Labels}
	var buf bytes.Buffer
	if err := SaveRun(&buf, cfg, ds.X, ds.Y); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)/3] ^= 0xff
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, b []byte) {
		cfg, x, y, err := LoadRun(bytes.NewReader(b))
		if err != nil {
			return
		}
		if cfg.Kernel == nil || x == nil || y == nil {
			t.Fatal("accepted run with nil pieces")
		}
		if x.Rows != y.Rows || len(x.Data) != x.Rows*x.Cols || len(y.Data) != y.Rows*y.Cols {
			t.Fatalf("accepted run with %dx%d inputs (%d elements), %dx%d targets (%d elements)",
				x.Rows, x.Cols, len(x.Data), y.Rows, y.Cols, len(y.Data))
		}
		if v := cfg.ValX; v != nil {
			if v.Cols != x.Cols || len(v.Data) != v.Rows*v.Cols {
				t.Fatalf("accepted %dx%d validation set (%d elements) for %d features", v.Rows, v.Cols, len(v.Data), x.Cols)
			}
			if len(cfg.ValLabels) > 0 && len(cfg.ValLabels) != v.Rows {
				t.Fatalf("accepted %d validation rows with %d labels", v.Rows, len(cfg.ValLabels))
			}
		}
	})
}
