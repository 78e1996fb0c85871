package device

import (
	"testing"
	"testing/quick"
	"time"
)

func testDevice() *Device {
	return &Device{
		Name:           "test",
		ParallelOps:    1e6,
		MemoryFloats:   1e6,
		WaveTime:       time.Millisecond,
		LaunchOverhead: 100 * time.Microsecond,
	}
}

func TestIterationTimeConstantBelowCapacity(t *testing.T) {
	d := testDevice()
	t1 := d.IterationTime(1)
	t2 := d.IterationTime(0.5e6)
	t3 := d.IterationTime(1e6)
	if t1 != t2 || t2 != t3 {
		t.Fatalf("sub-capacity iteration times differ: %v %v %v", t1, t2, t3)
	}
	want := d.LaunchOverhead + d.WaveTime
	if t1 != want {
		t.Fatalf("iteration time %v, want %v", t1, want)
	}
}

func TestIterationTimeLinearAboveCapacity(t *testing.T) {
	d := testDevice()
	t2x := d.IterationTime(2e6)
	t4x := d.IterationTime(4e6)
	// Subtract overhead; remaining must double.
	w2 := t2x - d.LaunchOverhead
	w4 := t4x - d.LaunchOverhead
	if w4 != 2*w2 {
		t.Fatalf("above-capacity time not linear: %v then %v", w2, w4)
	}
}

func TestIdealModeFlat(t *testing.T) {
	d := testDevice().WithMode(Ideal)
	if d.IterationTime(1) != d.IterationTime(1e12) {
		t.Fatal("ideal device must be flat in work")
	}
	if d.Name != "test-ideal" {
		t.Fatalf("name = %q", d.Name)
	}
}

func TestSequentialModeProportional(t *testing.T) {
	d := testDevice().WithMode(Sequential)
	a := d.IterationTime(1e6) - d.LaunchOverhead
	b := d.IterationTime(3e6) - d.LaunchOverhead
	if b != 3*a {
		t.Fatalf("sequential not proportional: %v vs %v", a, b)
	}
	// Sequential must be much slower than parallel for the same work.
	p := testDevice().IterationTime(1e6)
	if d.IterationTime(1e6) < 10*p {
		t.Fatal("sequential should be far slower than parallel at capacity")
	}
}

func TestModeString(t *testing.T) {
	if Parallel.String() != "parallel" || Ideal.String() != "ideal" || Sequential.String() != "sequential" {
		t.Fatal("mode names wrong")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Fatal("unknown mode formatting wrong")
	}
}

func TestBatchCompute(t *testing.T) {
	d := testDevice()
	// (dim+labels)*n = 100*100 = 1e4 work per batch element; capacity 1e6 → m_C = 100.
	if got := d.BatchCompute(100, 90, 10); got != 100 {
		t.Fatalf("BatchCompute = %d, want 100", got)
	}
	// Oversized per-element work still returns at least 1.
	if got := d.BatchCompute(1e6, 1000, 10); got != 1 {
		t.Fatalf("BatchCompute floor = %d, want 1", got)
	}
}

func TestBatchMemory(t *testing.T) {
	d := testDevice()
	// base = (d+l)*n = 100*9000 = 9e5; remaining 1e5 floats / n=9000 → m_S = 11.
	if got := d.BatchMemory(9000, 90, 10); got != 11 {
		t.Fatalf("BatchMemory = %d, want 11", got)
	}
	// Data alone exceeding memory yields 0.
	if got := d.BatchMemory(20000, 90, 10); got != 0 {
		t.Fatalf("BatchMemory = %d, want 0", got)
	}
}

func TestMaxBatchIsMinClamped(t *testing.T) {
	d := testDevice()
	mc := d.BatchCompute(9000, 90, 10)
	ms := d.BatchMemory(9000, 90, 10)
	got := d.MaxBatch(9000, 90, 10)
	want := mc
	if ms < want {
		want = ms
	}
	if got != want {
		t.Fatalf("MaxBatch = %d, want min(mc=%d, ms=%d)", got, mc, ms)
	}
	// Clamped to n.
	if got := d.MaxBatch(3, 1, 1); got > 3 {
		t.Fatalf("MaxBatch must not exceed n, got %d", got)
	}
	// Clamped to at least 1 even when memory-infeasible.
	if got := d.MaxBatch(20000, 90, 10); got != 1 {
		t.Fatalf("MaxBatch floor = %d, want 1", got)
	}
}

func TestSimTitanXpPreset(t *testing.T) {
	d := SimTitanXp()
	if d.Mode != Parallel {
		t.Fatal("preset must default to Parallel")
	}
	if d.ParallelOps <= 0 || d.MemoryFloats <= 0 || d.WaveTime <= 0 {
		t.Fatal("preset has non-positive parameters")
	}
	// A scaled TIMIT-like workload should saturate at a batch in the
	// hundreds-to-thousands range, matching the paper's regime.
	m := d.MaxBatch(10000, 440, 48)
	if m < 50 || m > 50000 {
		t.Fatalf("preset m_max = %d out of plausible regime", m)
	}
}

func TestClockAccumulates(t *testing.T) {
	d := testDevice()
	c := NewClock(d)
	t1 := c.Charge(1e6)
	t2 := c.Charge(2e6)
	if c.Elapsed() != t1+t2 {
		t.Fatalf("Elapsed = %v, want %v", c.Elapsed(), t1+t2)
	}
	if c.Ops() != 3e6 {
		t.Fatalf("Ops = %v, want 3e6", c.Ops())
	}
	if c.Iterations() != 2 {
		t.Fatalf("Iterations = %d, want 2", c.Iterations())
	}
	if c.Device() != d {
		t.Fatal("Device accessor wrong")
	}
	c.Reset()
	if c.Elapsed() != 0 || c.Ops() != 0 || c.Iterations() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestNegativeOpsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative ops")
		}
	}()
	testDevice().IterationTime(-1)
}

// Property: iteration time is monotone non-decreasing in work for every mode.
func TestQuickIterationTimeMonotone(t *testing.T) {
	f := func(w1, w2 float64) bool {
		a, b := abs(w1), abs(w2)
		if a > b {
			a, b = b, a
		}
		for _, mode := range []Mode{Parallel, Ideal, Sequential} {
			d := testDevice().WithMode(mode)
			if d.IterationTime(a) > d.IterationTime(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: m_max never exceeds m_C or m_S (when m_S ≥ 1) and never exceeds n.
func TestQuickMaxBatchBounds(t *testing.T) {
	f := func(nRaw, dRaw, lRaw uint16) bool {
		n := int(nRaw%5000) + 1
		dim := int(dRaw%500) + 1
		l := int(lRaw%100) + 1
		d := testDevice()
		m := d.MaxBatch(n, dim, l)
		if m < 1 || m > n {
			return false
		}
		if m > d.BatchCompute(n, dim, l) {
			return false
		}
		if ms := d.BatchMemory(n, dim, l); ms >= 1 && m > ms {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestServeBatch(t *testing.T) {
	d := SimTitanXp()
	n, dim, labels := 800, 784, 10
	got := d.ServeBatch(n, dim, labels)
	if mc := d.BatchCompute(n, dim, labels); got != mc {
		t.Fatalf("ServeBatch = %d, want compute-bound %d", got, mc)
	}
	// Unlike MaxBatch, ServeBatch is not clamped to n: a tiny model can
	// still coalesce a huge query batch.
	small := d.ServeBatch(10, 4, 2)
	if small <= 10 {
		t.Fatalf("ServeBatch clamped to center count: %d", small)
	}
	// Memory-bound regime: shrink device memory until m_S < m_C.
	tight := *d
	tight.MemoryFloats = int64((784+10)*800) + 5*800
	if got := tight.ServeBatch(n, dim, labels); got != 5 {
		t.Fatalf("memory-bound ServeBatch = %d, want 5", got)
	}
	// Degenerate: data alone overflows memory → still at least 1.
	tight.MemoryFloats = 10
	if got := tight.ServeBatch(n, dim, labels); got != 1 {
		t.Fatalf("overflow ServeBatch = %d, want 1", got)
	}
}
