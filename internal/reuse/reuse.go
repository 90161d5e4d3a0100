// Package reuse post-processes Sigil re-use profiles into the paper's
// data-reuse characterizations: per-workload re-use count breakdowns
// (Fig 8), per-function average re-use lifetimes (Fig 9), per-function
// lifetime histograms (Figs 10–11), and the line-granularity breakdown
// (Fig 12).
package reuse

import (
	"fmt"
	"sort"

	"sigil/internal/core"
)

// Breakdown is the Fig 8 stack for one workload: the share of re-use
// episodes in each re-use count bucket.
type Breakdown struct {
	Episodes uint64
	Zero     float64 // written once, read only once
	Low      float64 // re-used 1–9 times
	High     float64 // re-used more than 9 times
}

// Analyze aggregates a profile's per-context re-use statistics into the
// workload-level breakdown. The profile must have been collected with
// Options.TrackReuse.
func Analyze(r *core.Result) (Breakdown, error) {
	if r.Reuse == nil {
		return Breakdown{}, fmt.Errorf("reuse: profile was not collected in re-use mode")
	}
	var total core.ReuseStats
	for i := range r.Reuse {
		total.Add(r.Reuse[i])
	}
	b := Breakdown{Episodes: total.Episodes}
	if total.Episodes == 0 {
		return b, nil
	}
	n := float64(total.Episodes)
	b.Zero = float64(total.ZeroReuse) / n
	b.Low = float64(total.Low) / n
	b.High = float64(total.High) / n
	return b, nil
}

// FuncReuse summarizes one function's re-use behaviour (a Fig 9 bar).
type FuncReuse struct {
	Name        string
	ReusedBytes uint64  // episodes with at least one re-use
	AvgLifetime float64 // mean lifetime of those episodes, in instructions
	Episodes    uint64
}

// TopFunctions returns the k functions contributing the most reused bytes,
// in descending order — the paper's selection for Fig 9. Functions are
// aggregated across calling contexts by name.
func TopFunctions(r *core.Result, k int) ([]FuncReuse, error) {
	if r.Reuse == nil {
		return nil, fmt.Errorf("reuse: profile was not collected in re-use mode")
	}
	byFn := r.ReuseByFunction()
	out := make([]FuncReuse, 0, len(byFn))
	for name, s := range byFn {
		if s.Episodes == 0 {
			continue
		}
		out = append(out, FuncReuse{
			Name:        name,
			ReusedBytes: s.ReusedBytes,
			AvgLifetime: s.AvgLifetime(),
			Episodes:    s.Episodes,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ReusedBytes != out[j].ReusedBytes {
			return out[i].ReusedBytes > out[j].ReusedBytes
		}
		return out[i].Name < out[j].Name
	})
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out, nil
}

// LifetimeHistogram returns a function's re-use lifetime histogram: bin i
// counts reused episodes with lifetime in [i·core.LifetimeBin,
// (i+1)·core.LifetimeBin) — the Figs 10–11 drill-down. Contexts are
// aggregated by function name.
func LifetimeHistogram(r *core.Result, funcName string) ([]uint64, error) {
	if r.Reuse == nil {
		return nil, fmt.Errorf("reuse: profile was not collected in re-use mode")
	}
	s, ok := r.ReuseByFunction()[funcName]
	if !ok {
		return nil, fmt.Errorf("reuse: no statistics for function %q", funcName)
	}
	return s.LifetimeHist, nil
}

// HistogramShape summarizes a lifetime histogram for shape comparisons:
// the peak bin, the last nonempty bin (tail length), and the total count.
type HistogramShape struct {
	PeakBin  int
	TailBin  int
	Episodes uint64
}

// Shape computes a histogram's summary.
func Shape(hist []uint64) HistogramShape {
	sh := HistogramShape{PeakBin: -1, TailBin: -1}
	var peak uint64
	for i, v := range hist {
		sh.Episodes += v
		if v > peak {
			peak = v
			sh.PeakBin = i
		}
		if v > 0 {
			sh.TailBin = i
		}
	}
	return sh
}

// LineBreakdown returns the Fig 12 buckets as fractions of touched lines.
func LineBreakdown(r *core.Result) (*core.LineReport, error) {
	if r.Lines == nil {
		return nil, fmt.Errorf("reuse: profile was not collected in line-granularity mode")
	}
	return r.Lines, nil
}
