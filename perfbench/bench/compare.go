package bench

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// LayerBand is the relative change below which compare calls a layer
// metric unchanged. Layer metrics carry no bound of their own.
const LayerBand = 0.10

// Marks compare assigns.
const (
	Worse      = "worse"
	Better     = "better"
	Unchanged  = "unchanged"
	Unresolved = "unresolved"
)

// Delta is one metric of one workload compared across two result sets.
type Delta struct {
	Workload, Metric, Unit string
	Base, New              float64 // medians
	Rel                    float64 // (New-Base)/Base
	Spread                 float64 // larger run-to-run spread of the two sides
	Bound                  float64
	Mark                   string
}

// Classify marks the change from base runs to new runs of one metric. A
// side's spread is its interquartile distance over its median. When the
// spread exceeds the bound the change is unresolved, unless every new run
// is better (or worse) than every base run. Otherwise a median change
// beyond the bound is better or worse, and anything within it unchanged.
func Classify(base, next []float64, lower bool, bound float64) Delta {
	d := Delta{Base: Median(base), New: Median(next), Bound: bound}
	if d.Base != 0 {
		d.Rel = (d.New - d.Base) / math.Abs(d.Base)
	} else if d.New != 0 {
		d.Rel = math.Inf(1)
	}
	d.Spread = math.Max(Spread(base), Spread(next))
	gain := -d.Rel // positive when new is better
	if !lower {
		gain = d.Rel
	}
	switch {
	case d.Base == d.New:
		d.Mark = Unchanged
	case d.Spread > bound:
		d.Mark = Unresolved
		if separated(base, next, lower) {
			d.Mark = Better
		} else if separated(next, base, lower) {
			d.Mark = Worse
		}
	case gain > bound:
		d.Mark = Better
	case -gain > bound:
		d.Mark = Worse
	default:
		d.Mark = Unchanged
	}
	return d
}

// separated reports whether every value of b beats every value of a.
func separated(a, b []float64, lower bool) bool {
	for _, x := range a {
		for _, y := range b {
			if lower && y >= x || !lower && y <= x {
				return false
			}
		}
	}
	return true
}

// Compare returns the per-metric deltas between two result sets, one per
// workload and metric present in both. Untraced runs supply the summary
// and end-to-end metrics, traced runs the layer metrics.
func Compare(base, next Set) []Delta {
	type key struct{ wl, name string }
	collect := func(s Set) map[key][]float64 {
		vals := map[key][]float64{}
		for _, r := range s.Results {
			if r.Invalid != "" {
				continue
			}
			add := func(ms map[string]Metric, prefix string) {
				for name, m := range ms {
					k := key{r.Workload, prefix + name}
					vals[k] = append(vals[k], m.Value)
				}
			}
			if r.Traced {
				add(r.Layers, "")
			} else {
				add(r.Summary, "summary:")
				add(r.EndToEnd, "")
			}
		}
		return vals
	}
	bv, nv := collect(base), collect(next)
	var out []Delta
	for k, b := range bv {
		n, ok := nv[k]
		if !ok {
			continue
		}
		def, bound := lookup(k.name)
		d := Classify(b, n, def.Lower, bound)
		d.Workload, d.Metric, d.Unit = k.wl, k.name, def.Unit
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Metric != out[j].Metric {
			return out[i].Metric < out[j].Metric
		}
		return out[i].Workload < out[j].Workload
	})
	return out
}

// lookup returns a metric's definition and the bound compare holds it to.
func lookup(name string) (Def, float64) {
	if s, ok := strings.CutPrefix(name, "summary:"); ok {
		d, _ := Find(Summary, s)
		return d, d.Bound
	}
	if d, ok := Find(EndToEnd, name); ok {
		return d, d.Bound
	}
	d, ok := Find(Layers, name)
	if !ok {
		d = Def{Name: name}
	}
	// Layer metrics carry no direction; only a rate is better higher.
	d.Lower = d.Unit != "GFLOP/s"
	return d, LayerBand
}

// WriteDeltas prints deltas as an aligned table, one workload per row.
func WriteDeltas(w io.Writer, ds []Delta) {
	fmt.Fprintf(w, "%-34s %-18s %14s %14s %9s %8s %7s  %s\n",
		"metric", "workload", "base", "new", "delta", "spread", "bound", "mark")
	for _, d := range ds {
		fmt.Fprintf(w, "%-34s %-18s %14.6g %14.6g %+8.1f%% %7.1f%% %6.1f%%  %s\n",
			d.Metric, d.Workload, d.Base, d.New, 100*d.Rel, 100*d.Spread, 100*d.Bound, d.Mark)
	}
}
