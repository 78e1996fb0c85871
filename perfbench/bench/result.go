package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// Metric is one measured value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Note labels how the value was obtained when it was not measured on
	// this host's wall clock: "simulated" (from the device model) or
	// "computed" (counted from shapes).
	Note string `json:"note,omitempty"`
}

// Replay describes one layer call the benchmark replayed at a workload's
// real shape. Ops and Bytes are computed from the shape, not measured.
type Replay struct {
	Call        string  `json:"call"`
	Shape       string  `json:"shape"`
	Calls       int     `json:"calls"`
	MsPerCall   float64 `json:"ms_per_call"`
	AllocsPerOp float64 `json:"allocs_per_call"`
	Ops         float64 `json:"ops_computed"`
	Bytes       float64 `json:"bytes_computed"`
}

// Host fingerprints the machine and source a result came from.
type Host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
}

// Result is everything one run of one workload measured.
type Result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Traced   bool   `json:"traced"`
	Host     Host   `json:"host"`

	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	// Invalid, when set, says why the run's numbers must not be used (for
	// example, the load generator fell behind its schedule).
	Invalid string `json:"invalid,omitempty"`

	// Summary holds the Summary metrics, EndToEnd the workload's own
	// end-to-end metrics, Layers the per-layer metrics of a traced run.
	Summary  map[string]Metric `json:"summary,omitempty"`
	EndToEnd map[string]Metric `json:"end_to_end,omitempty"`
	Layers   map[string]Metric `json:"layers,omitempty"`
	Replays  []Replay          `json:"replays,omitempty"`
	// Checks holds exact values runs with the same seed must agree on,
	// such as the hash of the trained coefficients.
	Checks map[string]string `json:"checks,omitempty"`
}

// Set is a result file: the runs of one or more workloads.
type Set struct {
	Results []Result `json:"results"`
}

// WriteSet writes s as indented JSON to path, creating its directory.
func WriteSet(path string, s Set) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadSet reads a result file written by WriteSet.
func ReadSet(path string) (Set, error) {
	var s Set
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("read %s: %w", path, err)
	}
	return s, nil
}

// Fingerprint describes this host and, when run inside a git work tree,
// the commit and whether the tree has uncommitted changes.
func Fingerprint() Host {
	h := Host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if out, err := git("rev-parse", "HEAD"); err == nil {
		h.Commit = strings.TrimSpace(string(out))
		if st, err := git("status", "--porcelain"); err == nil {
			h.Dirty = len(strings.TrimSpace(string(st))) > 0
		}
	}
	return h
}

// git runs a git command on the working directory's own repository only:
// the search for a .git stops at the directory's parent, so a checkout
// that is not a work tree reports no commit rather than an enclosing one.
func git(args ...string) ([]byte, error) {
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command("git", args...)
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	return cmd.Output()
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// String renders the fingerprint on one line.
func (h Host) String() string {
	dirty := ""
	if h.Dirty {
		dirty = "+dirty"
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s%s",
		h.CPU, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, dirty)
}
