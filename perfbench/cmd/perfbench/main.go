// Command perfbench is the repository's wall-clock benchmark. It runs one
// workload per process, measures its end-to-end metrics (untraced) or its
// per-layer metrics (traced), checks every output, and prints one JSON
// result object as its last line. See perfbench/README.md.
//
// Usage:
//
//	perfbench --workload train-mnist --seed 1 --seconds 25 --trace 0
//	perfbench --all [--trace 1] [--runs 3] [--out set.json]
//	perfbench --compare base.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"eigenpro/perfbench/bench"
)

// outDir holds everything a run leaves behind, inside the checkout.
const outDir = ".bench_build"

// env is what a workload receives: its seed and time budget, the span
// recorder, and a scratch directory of its own.
type env struct {
	seed    int64
	seconds int
	tr      *bench.Tracer
	tmp     string
	log     func(format string, args ...any)
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(bench.Workloads, ", "))
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 25, "measurement budget of one run, in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	out := flag.String("out", "", "result file (default "+outDir+"/results/<workload>-s<seed>-t<trace>.json; with --all, the set)")
	all := flag.Bool("all", false, "run every workload, each in its own process, and print every metric")
	runs := flag.Int("runs", 1, "with --all: runs per workload, seeds seed, seed+1, ...")
	compare := flag.Bool("compare", false, "compare two result sets given as arguments")
	flag.Parse()
	for _, defs := range [][]bench.Def{bench.Summary, bench.EndToEnd, bench.Layers} {
		if err := bench.CheckDefs(defs); err != nil {
			fail(err.Error())
		}
	}

	switch {
	case *compare:
		os.Exit(runCompare(flag.Args()))
	case *all:
		os.Exit(runAll(*seed, *seconds, *trace == 1, *runs, *out))
	}
	if *trace != 0 && *trace != 1 {
		fail("--trace must be 0 or 1")
	}
	run, ok := workloads[*workload]
	if !ok {
		fail(fmt.Sprintf("unknown --workload %q (want one of %s)", *workload, strings.Join(bench.Workloads, ", ")))
	}
	res, err := runOne(*workload, run, *seed, *seconds, *trace == 1, *out)
	if err != nil {
		fail(err.Error())
	}
	if res.Invalid != "" {
		// An invalid run is recorded in its result file but not reported.
		os.Exit(3)
	}
	printLast(res)
}

var workloads = map[string]func(*env, *bench.Result) error{
	bench.TrainMNIST:      trainMNIST,
	bench.ServeImageNet:   serveImageNet,
	bench.TrainWhileServe: trainWhileServe,
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "perfbench:", msg)
	os.Exit(1)
}

// runOne runs one workload in this process and writes its result file.
func runOne(name string, run func(*env, *bench.Result) error, seed int64, seconds int, traced bool, out string) (*bench.Result, error) {
	if err := os.MkdirAll(filepath.Join(outDir, "tmp"), 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(filepath.Join(outDir, "tmp"), name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	e := &env{seed: seed, seconds: seconds, tr: bench.NewTracer(traced), tmp: tmp,
		log: func(format string, args ...any) { fmt.Printf(format+"\n", args...) }}
	res := &bench.Result{
		Workload: name, Seed: seed, Seconds: seconds, Traced: traced,
		Host:     bench.Fingerprint(),
		EndToEnd: map[string]bench.Metric{}, Layers: map[string]bench.Metric{},
		Checks: map[string]string{},
	}
	e.log("host %s seed=%d workload=%s traced=%v", res.Host, seed, name, traced)
	start := time.Now()
	if err := run(e, res); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	wall := time.Since(start)
	res.Correct = res.Failed == 0 && res.Invalid == ""
	if res.Attempted > 0 {
		res.EndToEnd["fail_frac"] = bench.Metric{Value: float64(res.Failed) / float64(res.Attempted), Unit: "ratio"}
	}
	if traced {
		// The tracer's cost is its per-span record cost times the spans the
		// run recorded, over the run's wall time.
		cost := bench.RecordCost(100000) * time.Duration(e.tr.Len())
		res.Layers["trace.overhead_frac"] = bench.Metric{Value: cost.Seconds() / wall.Seconds(), Unit: "ratio"}
		if err := e.tr.WriteFile(filepath.Join(outDir, "traces", fmt.Sprintf("%s-s%d.json", name, seed))); err != nil {
			return nil, err
		}
	}
	report(res)
	if out == "" {
		out = filepath.Join(outDir, "results", fmt.Sprintf("%s-s%d-t%d.json", name, seed, b2i(traced)))
	}
	if err := bench.WriteSet(out, bench.Set{Results: []bench.Result{*res}}); err != nil {
		return nil, err
	}
	return res, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// report prints every measured metric by name and unit.
func report(res *bench.Result) {
	if res.Invalid != "" {
		fmt.Printf("INVALID run: %s\n", res.Invalid)
	}
	printMap := func(kind string, ms map[string]bench.Metric) {
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := ms[n]
			note := ""
			if m.Note != "" {
				note = " (" + m.Note + ")"
			}
			fmt.Printf("%-6s %-32s %14.6g %s%s\n", kind, n, m.Value, m.Unit, note)
		}
	}
	printMap("e2e", res.EndToEnd)
	printMap("layer", res.Layers)
	for _, r := range res.Replays {
		fmt.Printf("replay %-28s %-22s calls=%-3d %10.4f ms/call %8.1f allocs/call ops=%.4g (computed) bytes=%.4g (computed)\n",
			r.Call, r.Shape, r.Calls, r.MsPerCall, r.AllocsPerOp, r.Ops, r.Bytes)
	}
	for k, v := range res.Checks {
		fmt.Printf("check  %-32s %s\n", k, v)
	}
	fmt.Printf("attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
}

// printLast prints the one-line JSON result that ends every run: the Summary
// metrics of an untraced run, or the every-workload layer metrics of a
// traced one.
func printLast(res *bench.Result) {
	metrics := map[string]bench.Metric{}
	defs, src := bench.Summary, res.Summary
	if res.Traced {
		defs, src = bench.Layers, res.Layers
	}
	for _, d := range defs {
		if !d.Every {
			continue
		}
		m, ok := src[d.Name]
		if !ok {
			fail(fmt.Sprintf("%s: metric %s was not measured", res.Workload, d.Name))
		}
		metrics[d.Name] = bench.Metric{Value: m.Value, Unit: d.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                    `json:"correct"`
		Attempted int                     `json:"attempted"`
		Failed    int                     `json:"failed"`
		Metrics   map[string]bench.Metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		fail(err.Error())
	}
	fmt.Println(string(line))
}

// runAll runs every workload runs times, each as its own process, gathers
// the results into one set, and prints each end-to-end metric per
// workload. With traced, each seed runs untraced and then traced.
func runAll(seed int64, seconds int, traced bool, runs int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fail(err.Error())
	}
	var set bench.Set
	code := 0
	for _, wl := range bench.Workloads {
		for i := 0; i < runs; i++ {
			s := seed + int64(i)
			modes := []bool{false}
			if traced {
				modes = append(modes, true)
			}
			for _, t := range modes {
				path := filepath.Join(outDir, "results", fmt.Sprintf("%s-s%d-t%d.json", wl, s, b2i(t)))
				cmd := exec.Command(self, "--workload", wl, "--seed", fmt.Sprint(s),
					"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(b2i(t)), "--out", path)
				cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
				if err := cmd.Run(); err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: %s seed %d trace %v: %v\n", wl, s, t, err)
					code = 1
					continue
				}
				rs, err := bench.ReadSet(path)
				if err != nil {
					fail(err.Error())
				}
				set.Results = append(set.Results, rs.Results...)
			}
		}
	}
	code |= checkRepeats(set)
	printTable(set)
	if traced {
		printTraceDiff(set)
	}
	if out == "" {
		out = filepath.Join(outDir, "results", fmt.Sprintf("all-s%d.json", seed))
	}
	if err := bench.WriteSet(out, set); err != nil {
		fail(err.Error())
	}
	fmt.Printf("result set written to %s\n", out)
	return code
}

// checkRepeats fails the set when two runs of one workload with the same
// seed disagree on an exact check, such as the trained coefficients.
func checkRepeats(set bench.Set) int {
	type key struct {
		wl   string
		seed int64
		name string
	}
	seen := map[key]string{}
	code := 0
	for _, r := range set.Results {
		for name, v := range r.Checks {
			k := key{r.Workload, r.Seed, name}
			if prev, ok := seen[k]; ok && prev != v {
				fmt.Printf("MISMATCH %s seed %d: %s differs between runs (%s vs %s)\n", r.Workload, r.Seed, name, prev, v)
				code = 1
			}
			seen[k] = v
		}
	}
	return code
}

// printTable prints, per workload, the median and run-to-run spread of
// every end-to-end metric (untraced runs) and layer metric (traced runs).
func printTable(set bench.Set) {
	fmt.Printf("\n%-18s %-32s %14s %-8s %5s %7s\n", "workload", "metric", "median", "unit", "runs", "spread")
	for _, wl := range bench.Workloads {
		for _, defs := range [][]bench.Def{bench.EndToEnd, bench.Layers} {
			for _, d := range defs {
				var vals []float64
				for _, r := range set.Results {
					if r.Workload != wl {
						continue
					}
					src := r.EndToEnd
					if d.Layer != "e2e" {
						src = r.Layers
					}
					if m, ok := src[d.Name]; ok && (d.Layer == "e2e") == !r.Traced {
						vals = append(vals, m.Value)
					}
				}
				if len(vals) > 0 {
					fmt.Printf("%-18s %-32s %14.6g %-8s %5d %6.1f%%\n",
						wl, d.Name, bench.Median(vals), d.Unit, len(vals), 100*bench.Spread(vals))
				}
			}
		}
	}
}

// printTraceDiff prints, per workload, how much the traced runs' summary
// metrics differ from the untraced runs' of the same seeds: the
// end-to-end view of what tracing costs.
func printTraceDiff(set bench.Set) {
	fmt.Printf("\n%-18s %-12s %14s %14s %9s\n", "workload", "metric", "untraced", "traced", "diff")
	for _, wl := range bench.Workloads {
		for _, d := range bench.Summary {
			var plain, traced []float64
			for _, r := range set.Results {
				if m, ok := r.Summary[d.Name]; ok && r.Workload == wl {
					if r.Traced {
						traced = append(traced, m.Value)
					} else {
						plain = append(plain, m.Value)
					}
				}
			}
			if len(plain) > 0 && len(traced) > 0 {
				p, t := bench.Median(plain), bench.Median(traced)
				fmt.Printf("%-18s %-12s %14.6g %14.6g %+8.1f%%\n", wl, d.Name, p, t, 100*(t-p)/p)
			}
		}
	}
}

func runCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --compare base.json new.json")
		return 2
	}
	base, err := bench.ReadSet(args[0])
	if err != nil {
		fail(err.Error())
	}
	next, err := bench.ReadSet(args[1])
	if err != nil {
		fail(err.Error())
	}
	bench.WriteDeltas(os.Stdout, bench.Compare(base, next))
	return 0
}
