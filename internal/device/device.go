// Package device models the parallel computational resource abstraction of
// the paper's §2: a resource G is characterized by its parallel capacity C_G
// (operations that fully utilize one execution wave) and its memory S_G.
//
// This is the substitution for the paper's physical GPU (Nvidia Titan Xp):
// the Go ecosystem offers no CUDA path, so experiments run against this
// deterministic simulator, which implements exactly the abstraction the
// paper's analysis uses. The per-iteration timing model is
//
//	T(work) = LaunchOverhead + WaveTime * max(1, work/C_G)
//
// i.e. constant until work saturates a wave, then linear — the shape
// measured on the real GPU in the paper's Figure 3a. An Ideal mode (always
// one wave) and a Sequential mode (time strictly proportional to work)
// reproduce the reference curves in the same figure.
package device

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// Mode selects the execution model used for timing.
type Mode int

const (
	// Parallel is the realistic model: constant time per iteration up to
	// the capacity C_G, linear growth beyond it.
	Parallel Mode = iota
	// Ideal is an infinitely parallel device: every iteration takes one
	// wave regardless of the amount of work.
	Ideal
	// Sequential charges time strictly proportional to work, like a
	// single-lane machine.
	Sequential
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case Parallel:
		return "parallel"
	case Ideal:
		return "ideal"
	case Sequential:
		return "sequential"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Device is a simulated parallel computational resource G = (C_G, S_G).
type Device struct {
	// Name labels the device in reports.
	Name string
	// ParallelOps is C_G: the number of scalar multiply-add operations one
	// execution wave retires at full utilization.
	ParallelOps float64
	// MemoryFloats is S_G expressed in float64 storage slots.
	MemoryFloats int64
	// WaveTime is the duration of one fully-utilized execution wave.
	WaveTime time.Duration
	// LaunchOverhead is the fixed per-iteration cost (kernel launch, sync);
	// it drives the Amdahl's-law effect in the paper's Figure 3b.
	LaunchOverhead time.Duration
	// Mode selects the timing model; zero value is the realistic Parallel.
	Mode Mode
}

// SimTitanXp returns a simulated device loosely scaled from the paper's
// Nvidia GTX Titan Xp (3840 CUDA cores, 12 GB), shrunk so that the scaled
// synthetic workloads in this repo saturate it in the same regime the
// paper's full-size workloads saturated the physical card (m_max around
// a few hundred to a few thousand).
func SimTitanXp() *Device {
	return &Device{
		Name:           "sim-titan-xp",
		ParallelOps:    6.0e8,
		MemoryFloats:   2.0e8,
		WaveTime:       2 * time.Millisecond,
		LaunchOverhead: 150 * time.Microsecond,
		Mode:           Parallel,
	}
}

// WithMode returns a copy of d using the given execution mode.
func (d *Device) WithMode(m Mode) *Device {
	cp := *d
	cp.Mode = m
	if m != Parallel {
		cp.Name = d.Name + "-" + m.String()
	}
	return &cp
}

// IterationTime returns the simulated duration of one iteration performing
// the given number of scalar operations.
func (d *Device) IterationTime(ops float64) time.Duration {
	if ops < 0 {
		panic(fmt.Sprintf("device: negative ops %v", ops))
	}
	var waves float64
	switch d.Mode {
	case Ideal:
		waves = 1
	case Sequential:
		waves = ops / d.ParallelOps * 1e3 // a single lane ~1000x slower per op
	default:
		waves = math.Max(1, ops/d.ParallelOps)
	}
	return d.LaunchOverhead + time.Duration(waves*float64(d.WaveTime))
}

// BatchCompute returns m_C: the largest batch size whose per-iteration work
// (d+l)·m·n still fits in one wave (paper Step 1). At least 1.
func (d *Device) BatchCompute(n, dim, labels int) int {
	work := float64(dim+labels) * float64(n)
	if work <= 0 {
		return 1
	}
	m := int(d.ParallelOps / work)
	if m < 1 {
		m = 1
	}
	return m
}

// BatchMemory returns m_S: the largest batch size such that the working set
// (d+l+m)·n fits in device memory (paper Step 1). Returns 0 when even m=0
// does not fit (the data itself exceeds memory).
func (d *Device) BatchMemory(n, dim, labels int) int {
	base := int64(dim+labels) * int64(n)
	if base >= d.MemoryFloats {
		return 0
	}
	m := (d.MemoryFloats - base) / int64(n)
	if m > math.MaxInt32 {
		m = math.MaxInt32
	}
	return int(m)
}

// MaxBatch returns m_max = min(m_C, m_S) clamped to [1, n], the batch size
// that fully utilizes the device for an n-sample, dim-feature,
// labels-output workload (paper Step 1: m_max = min{m_C, m_S}). It is
// ServeBatch clamped to the training-set size: a training mini-batch cannot
// exceed n.
func (d *Device) MaxBatch(n, dim, labels int) int {
	m := d.ServeBatch(n, dim, labels)
	if m > n {
		m = n
	}
	return m
}

// ServeBatch returns the inference analogue of MaxBatch: the largest
// query-batch size m that fully utilizes the device when predicting with a
// model of n centers, dim features, and labels outputs. The per-row work
// (n·(d+l)) and working set ((d+l+m)·n) match the training formulas, but
// the result is not clamped to n — a serving batch coalesces independent
// queries, so its size is unrelated to the training-set size. At least 1.
func (d *Device) ServeBatch(n, dim, labels int) int {
	m := d.BatchCompute(n, dim, labels)
	if ms := d.BatchMemory(n, dim, labels); ms < m {
		m = ms
	}
	if m < 1 {
		m = 1
	}
	return m
}

// Clock accumulates simulated execution time and operation counts for a
// sequence of iterations on a device. All methods are safe for concurrent
// use, so a metrics scrape can read a clock that serving workers are
// charging without an external lock.
type Clock struct {
	dev     *Device
	mu      sync.Mutex
	elapsed time.Duration
	ops     float64
	iters   int64
}

// NewClock returns a clock bound to the given device.
func NewClock(d *Device) *Clock { return &Clock{dev: d} }

// Charge records one iteration of the given operation count and returns its
// simulated duration.
func (c *Clock) Charge(ops float64) time.Duration {
	t := c.dev.IterationTime(ops)
	c.mu.Lock()
	c.elapsed += t
	c.ops += ops
	c.iters++
	c.mu.Unlock()
	return t
}

// Elapsed returns total simulated time charged so far.
func (c *Clock) Elapsed() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.elapsed
}

// Ops returns total operations charged so far.
func (c *Clock) Ops() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ops
}

// Iterations returns the number of Charge calls.
func (c *Clock) Iterations() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.iters
}

// Reset zeroes the clock.
func (c *Clock) Reset() {
	c.mu.Lock()
	c.elapsed, c.ops, c.iters = 0, 0, 0
	c.mu.Unlock()
}

// Restore sets the clock's accumulated totals. It is the inverse of reading
// Elapsed/Ops/Iterations, used when resuming a checkpointed training run so
// simulated-time accounting continues where the interrupted run left off.
func (c *Clock) Restore(elapsed time.Duration, ops float64, iters int64) {
	c.mu.Lock()
	c.elapsed, c.ops, c.iters = elapsed, ops, iters
	c.mu.Unlock()
}

// Device returns the device the clock charges against.
func (c *Clock) Device() *Device { return c.dev }
