package cdfg

import (
	"fmt"
	"math"
	"sort"
)

// This file implements the paper's stated next step — "traverse the list,
// apply system constraints and perform an amenability test" — as the
// early-stage offload model its follow-up work (Nilakantan, Battle &
// Hempstead, CAL 2012 [23]) applies to Sigil profiles: assume each selected
// candidate's computation accelerates by a fixed factor, charge its unique
// communication over the bus, and estimate the whole-application speedup.

// OffloadConfig parameterizes the execution model.
type OffloadConfig struct {
	// Speedup is the assumed computational speedup of an accelerator
	// implementing a candidate sub-tree (must exceed 1).
	Speedup float64
	// MaxAccelerators bounds how many candidates receive hardware
	// (0 means all viable candidates).
	MaxAccelerators int
}

// CandidateGain is one candidate's contribution under the model.
type CandidateGain struct {
	Candidate
	// SwCycles is the candidate's software time (inclusive cycles).
	SwCycles uint64
	// AccelCycles is its modelled offloaded time: computation divided by
	// the assumed speedup, plus the data-offload time of Eq. 1.
	AccelCycles float64
	// Gain is the cycles saved (may be negative for candidates whose
	// breakeven exceeds the assumed speedup).
	Gain float64
}

// OffloadEstimate is the application-level result.
type OffloadEstimate struct {
	Config            OffloadConfig
	Selected          []CandidateGain
	BaselineCycles    uint64
	AcceleratedCycles float64
	// AppSpeedup is the estimated whole-application speedup — the
	// Amdahl-limited gain over all offloaded candidates.
	AppSpeedup float64
}

// EstimateOffload applies the execution model to a trimmed calltree: each
// candidate with positive gain (up to MaxAccelerators, best gains first) is
// offloaded; everything else stays in software.
func (t *Trimmed) EstimateOffload(cfg OffloadConfig) (*OffloadEstimate, error) {
	if cfg.Speedup <= 1 {
		return nil, fmt.Errorf("cdfg: offload speedup %v must exceed 1", cfg.Speedup)
	}
	bw := t.Graph.Config.BytesPerCycle
	est := &OffloadEstimate{Config: cfg, BaselineCycles: t.TotalCycles}

	var gains []CandidateGain
	for _, c := range t.Candidates {
		tsw := float64(c.InclCycles)
		tcomm := float64(c.ExtIn+c.ExtOut) / bw
		accel := tsw/cfg.Speedup + tcomm
		gains = append(gains, CandidateGain{
			Candidate:   c,
			SwCycles:    c.InclCycles,
			AccelCycles: accel,
			Gain:        tsw - accel,
		})
	}
	sort.Slice(gains, func(i, j int) bool { return gains[i].Gain > gains[j].Gain })

	limit := cfg.MaxAccelerators
	if limit <= 0 || limit > len(gains) {
		limit = len(gains)
	}
	total := float64(t.TotalCycles)
	for _, g := range gains[:limit] {
		if g.Gain <= 0 {
			break // sorted: everything after is also non-positive
		}
		est.Selected = append(est.Selected, g)
		total -= g.Gain
	}
	est.AcceleratedCycles = total
	if total > 0 {
		est.AppSpeedup = float64(t.TotalCycles) / total
	} else {
		est.AppSpeedup = math.Inf(1)
	}
	return est, nil
}
