package bench

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"
)

func TestMetricNamesMatchPattern(t *testing.T) {
	for _, defs := range [][]Def{Summary, EndToEnd, Layers} {
		if err := CheckDefs(defs); err != nil {
			t.Error(err)
		}
	}
	for _, bad := range []Def{
		{Name: "_lead", Unit: "s"},
		{Name: "has space", Unit: "s"},
		{Name: "ok", Unit: "way-too-long-unit-name"},
		{Name: string(make([]byte, 65)), Unit: "s"},
	} {
		if CheckDefs([]Def{bad}) == nil {
			t.Errorf("CheckDefs accepted %q with unit %q", bad.Name, bad.Unit)
		}
	}
	if CheckDefs([]Def{{Name: "a", Unit: "s"}, {Name: "a", Unit: "s"}}) == nil {
		t.Error("CheckDefs accepted a repeated name")
	}
}

// BENCHMARK.json must name known workloads, and its metric lists must match
// the Summary metrics and the layer metrics every workload reports.
func TestBenchmarkFileMatchesDefs(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if !slices.Contains(Workloads, w.Name) {
			t.Errorf("BENCHMARK.json workload %q is not one of %v", w.Name, Workloads)
		}
	}
	if len(spec.EndToEnd) != len(Summary) {
		t.Fatalf("BENCHMARK.json has %d end_to_end metrics, Summary has %d", len(spec.EndToEnd), len(Summary))
	}
	for i, m := range spec.EndToEnd {
		d := Summary[i]
		better := "higher"
		if d.Lower {
			better = "lower"
		}
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, Summary has %+v", i, m, d)
		}
	}
	var every []Def
	for _, d := range Layers {
		if d.Every {
			every = append(every, d)
		}
	}
	if len(spec.PerLayer) != len(every) {
		t.Fatalf("BENCHMARK.json has %d per_layer metrics, %d layer metrics are reported by every workload", len(spec.PerLayer), len(every))
	}
	for i, m := range spec.PerLayer {
		if m.Name != every[i].Name || m.Unit != every[i].Unit {
			t.Errorf("per_layer[%d] = %+v, want %s in %s", i, m, every[i].Name, every[i].Unit)
		}
	}
}

func TestPoissonIsDeterministic(t *testing.T) {
	a := Poisson(7, 500, 2*time.Second, 64)
	b := Poisson(7, 500, 2*time.Second, 64)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if c := Poisson(8, 500, 2*time.Second, 64); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	// About rate*dur arrivals, sorted, within the window, rows in range.
	if n := len(a); n < 900 || n > 1100 {
		t.Errorf("%d arrivals at 500/s over 2s", n)
	}
	for i, x := range a {
		if x.At < 0 || x.At >= 2*time.Second || x.Row < 0 || x.Row >= 64 {
			t.Fatalf("arrival %d = %+v out of range", i, x)
		}
		if i > 0 && x.At < a[i-1].At {
			t.Fatalf("arrival %d before its predecessor", i)
		}
	}
}

func TestRunOpenLoopStops(t *testing.T) {
	sched := Poisson(1, 1000, time.Minute, 4)
	stop := make(chan struct{})
	time.AfterFunc(50*time.Millisecond, func() { close(stop) })
	outs := RunOpenLoop(time.Now(), sched, stop, func(int, Arrival) error { return nil })
	if len(outs) == 0 || len(outs) >= len(sched) {
		t.Fatalf("sent %d of %d arrivals before stop", len(outs), len(sched))
	}
	for _, o := range outs {
		if o.Latency() < 0 || o.Done.IsZero() {
			t.Fatalf("bad outcome %+v", o)
		}
	}
}

func TestResultFileRoundTrip(t *testing.T) {
	want := Set{Results: []Result{{
		Workload: TrainMNIST, Seed: 3, Seconds: 25, Traced: true,
		Host:    Host{CPU: "cpu", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.x", Commit: "abc", Dirty: true},
		Correct: true, Attempted: 9,
		Summary:  map[string]Metric{"setup_s": {Value: 1.25, Unit: "s"}},
		EndToEnd: map[string]Metric{"train_mse": {Value: 6.25e-4, Unit: "mse"}},
		Layers:   map[string]Metric{"device.mmax.train": {Value: 377, Unit: "count", Note: "simulated"}},
		Replays:  []Replay{{Call: "mat.MulTTo", Shape: "1x2x3", Calls: 3, MsPerCall: 0.5, AllocsPerOp: 6, Ops: 12, Bytes: 96}},
		Checks:   map[string]string{"coef_sha256": "0123"},
	}}}
	path := filepath.Join(t.TempDir(), "sub", "set.json")
	if err := WriteSet(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSet(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := Quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || Median(xs) != 5.5 {
		t.Fatalf("quartiles %v %v median %v", q1, q3, Median(xs))
	}
	if got := Spread(xs); math.Abs(got-1) > 1e-12 {
		t.Fatalf("spread %v, want 1", got)
	}
	if p := Percentile([]float64{1, 2, math.Inf(1)}, 0.99); !math.IsInf(p, 1) {
		t.Fatalf("a failed request must count as missing the limit, got %v", p)
	}
}

func TestClassify(t *testing.T) {
	base := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		next []float64
		want string
	}{
		{[]float64{100, 101, 99, 100, 100}, Unchanged},
		{[]float64{130, 131, 129, 130, 130}, Worse},
		{[]float64{70, 71, 69, 70, 70}, Better},
		{[]float64{60, 140, 105, 90, 115}, Unresolved},
	} {
		if got := Classify(base, c.next, true, 0.15).Mark; got != c.want {
			t.Errorf("Classify(%v) = %s, want %s", c.next, got, c.want)
		}
	}
}
