package bench

import (
	"fmt"
	"regexp"
)

// Workload names, as passed to --workload.
const (
	TrainMNIST      = "train-mnist"
	ServeImageNet   = "serve-imagenet"
	TrainWhileServe = "train-while-serve"
)

// Workloads lists every workload in run order.
var Workloads = []string{TrainMNIST, ServeImageNet, TrainWhileServe}

// Def describes one metric. README.md says, for each, how it is measured
// and which end-to-end metric on which workload it should move.
type Def struct {
	Name  string
	Unit  string
	Layer string
	// Lower is true when a smaller value is better.
	Lower bool
	// Bound is the share of the base median by which an end-to-end metric
	// may worsen before compare calls it worse; 0 for layer metrics.
	Bound float64
	// Every marks a metric every workload reports, which is therefore on
	// the last output line of its kind.
	Every bool
}

// Summary metrics are what every run prints on its last line with
// --trace 0: the same three names on every workload, each standing for that
// workload's own end-to-end metric as README.md says. Their bounds equal the
// ones in BENCHMARK.json.
var Summary = []Def{
	{Name: "setup_s", Unit: "s", Layer: "e2e", Lower: true, Bound: 0.25, Every: true},
	{Name: "lat_p50_ms", Unit: "ms", Layer: "e2e", Lower: true, Bound: 0.25, Every: true},
	{Name: "peak_rss_mb", Unit: "MB", Layer: "e2e", Lower: true, Bound: 0.20, Every: true},
}

// EndToEnd are the end-to-end metrics each workload measures, by the names
// the human-readable report and the result files use.
var EndToEnd = []Def{
	{Name: "setup_s", Unit: "s", Layer: "e2e", Lower: true, Bound: 0.25},
	{Name: "train_s", Unit: "s", Layer: "e2e", Lower: true, Bound: 0.25},
	{Name: "epoch_s", Unit: "s", Layer: "e2e", Lower: true, Bound: 0.25},
	{Name: "train_mse", Unit: "mse", Layer: "e2e", Lower: true, Bound: 0.01},
	{Name: "lat_p50_ms.lo", Unit: "ms", Layer: "e2e", Lower: true, Bound: 0.25},
	{Name: "lat_p99_ms.lo", Unit: "ms", Layer: "e2e", Lower: true, Bound: 0.25},
	{Name: "lat_p50_ms.hi", Unit: "ms", Layer: "e2e", Lower: true, Bound: 0.25},
	{Name: "lat_p99_ms.hi", Unit: "ms", Layer: "e2e", Lower: true, Bound: 0.25},
	{Name: "max_rate_rps", Unit: "req/s", Layer: "e2e", Lower: false, Bound: 0.25},
	{Name: "time_to_servable_s", Unit: "s", Layer: "e2e", Lower: true, Bound: 0.25},
	{Name: "http_p50_ms", Unit: "ms", Layer: "e2e", Lower: true, Bound: 0.25},
	{Name: "http_p99_ms", Unit: "ms", Layer: "e2e", Lower: true, Bound: 0.25},
	{Name: "fail_frac", Unit: "ratio", Layer: "e2e", Lower: true, Bound: 0},
	{Name: "peak_rss_mb", Unit: "MB", Layer: "e2e", Lower: true, Bound: 0.20},
}

// Layers are the per-layer metrics of traced runs. Those marked Every are
// measured on every workload, at that workload's own shapes, and form the
// last output line of a traced run; the rest belong to one or two
// workloads and are printed and stored in the result file.
var Layers = []Def{
	// mat
	{Name: "mat.multt.gflops", Unit: "GFLOP/s", Layer: "mat", Every: true},
	{Name: "mat.multt.allocs", Unit: "count", Layer: "mat", Every: true},
	{Name: "mat.multt.gflops.b1", Unit: "GFLOP/s", Layer: "mat", Every: true},
	{Name: "mat.multo.gflops", Unit: "GFLOP/s", Layer: "mat", Every: true},
	{Name: "mat.tmul.gflops", Unit: "GFLOP/s", Layer: "mat"},
	// kernel
	{Name: "kernel.matrix_ms", Unit: "ms", Layer: "kernel", Every: true},
	{Name: "kernel.map_frac", Unit: "ratio", Layer: "kernel", Every: true},
	{Name: "kernel.gram_s", Unit: "s", Layer: "kernel"},
	// eigen
	{Name: "eigen.topq_s", Unit: "s", Layer: "eigen"},
	// core
	{Name: "core.setup.spectrum_s", Unit: "s", Layer: "core"},
	{Name: "core.setup.probe_s", Unit: "s", Layer: "core"},
	{Name: "core.step.iter_ms", Unit: "ms", Layer: "core"},
	{Name: "core.step.iters", Unit: "count", Layer: "core"},
	{Name: "core.step.sim_ops", Unit: "count", Layer: "core"},
	{Name: "core.step.unattributed_frac", Unit: "ratio", Layer: "core"},
	{Name: "core.predict.ms_per_row.b1", Unit: "ms", Layer: "core", Every: true},
	{Name: "core.predict.ms_per_row.b8", Unit: "ms", Layer: "core", Every: true},
	{Name: "core.predict.ms_per_row.b32", Unit: "ms", Layer: "core", Every: true},
	{Name: "core.predict.ms_per_row.b128", Unit: "ms", Layer: "core", Every: true},
	{Name: "core.predict.ms_per_row.bmax", Unit: "ms", Layer: "core", Every: true},
	{Name: "core.predict.allocs.b1", Unit: "count", Layer: "core", Every: true},
	{Name: "core.predict.allocs.b8", Unit: "count", Layer: "core", Every: true},
	{Name: "core.predict.allocs.b32", Unit: "count", Layer: "core", Every: true},
	{Name: "core.predict.allocs.b128", Unit: "count", Layer: "core", Every: true},
	{Name: "core.predict.allocs.bmax", Unit: "count", Layer: "core", Every: true},
	// device (simulated)
	{Name: "device.mmax.train", Unit: "count", Layer: "device"},
	{Name: "device.mmax.serve", Unit: "count", Layer: "device", Every: true},
	{Name: "device.model_error.train", Unit: "ratio", Layer: "device"},
	{Name: "device.model_error.serve", Unit: "ratio", Layer: "device", Every: true},
	// serve
	{Name: "serve.occupancy_mean", Unit: "rows", Layer: "serve"},
	{Name: "serve.batches", Unit: "count", Layer: "serve"},
	{Name: "serve.queue_wait_ms_p50", Unit: "ms", Layer: "serve"},
	{Name: "serve.queue_wait_ms_p99", Unit: "ms", Layer: "serve"},
	{Name: "serve.execute_ms_p50", Unit: "ms", Layer: "serve"},
	{Name: "serve.execute_ms_p99", Unit: "ms", Layer: "serve"},
	{Name: "serve.useful_frac", Unit: "ratio", Layer: "serve"},
	{Name: "serve.rejected", Unit: "count", Layer: "serve"},
	{Name: "serve.expired", Unit: "count", Layer: "serve"},
	{Name: "serve.shed", Unit: "count", Layer: "serve"},
	{Name: "serve.http_overhead_ms_p50", Unit: "ms", Layer: "serve"},
	{Name: "serve.http_bytes_per_req", Unit: "bytes", Layer: "serve"},
	// jobs
	{Name: "jobs.queue_wait_s", Unit: "s", Layer: "jobs"},
	{Name: "jobs.epoch_s", Unit: "s", Layer: "jobs"},
	{Name: "jobs.register_s", Unit: "s", Layer: "jobs"},
	// durable
	{Name: "durable.checkpoint_ms", Unit: "ms", Layer: "durable"},
	{Name: "durable.checkpoint_bytes", Unit: "bytes", Layer: "durable"},
	{Name: "durable.journal_append_us", Unit: "us", Layer: "durable"},
	{Name: "durable.fsyncs", Unit: "count", Layer: "durable"},
	// benchmark health
	{Name: "gen.lag_p99_ms", Unit: "ms", Layer: "bench"},
	{Name: "gen.sent", Unit: "count", Layer: "bench"},
	{Name: "trace.overhead_frac", Unit: "ratio", Layer: "bench", Every: true},
}

var (
	namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitPattern = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// CheckDefs verifies that every metric name and unit in defs fits the
// result format (a name starts with a letter or digit and has at most 64
// letters, digits, '_', '.', '-'; a unit at most 16 of letters, digits and
// "_/%.-") and that no name repeats.
func CheckDefs(defs []Def) error {
	seen := map[string]bool{}
	for _, d := range defs {
		if !namePattern.MatchString(d.Name) {
			return fmt.Errorf("metric name %q does not match %s", d.Name, namePattern)
		}
		if !unitPattern.MatchString(d.Unit) {
			return fmt.Errorf("metric %s: unit %q does not match %s", d.Name, d.Unit, unitPattern)
		}
		if seen[d.Name] {
			return fmt.Errorf("metric name %q used twice", d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}

// Find returns the definition of name in defs.
func Find(defs []Def, name string) (Def, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return Def{}, false
}
