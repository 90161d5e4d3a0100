package cdfg

import (
	"math"
	"testing"
)

func trimmedPipeline(t *testing.T, ops int64) *Trimmed {
	t.Helper()
	return buildGraph(t, pipelineProgram(t, ops), Config{}).Trim()
}

func TestOffloadGainPositiveAboveBreakeven(t *testing.T) {
	tr := trimmedPipeline(t, 50000)
	est, err := tr.EstimateOffload(OffloadConfig{Speedup: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(est.Selected) == 0 {
		t.Fatal("nothing offloaded at 10x")
	}
	if est.AppSpeedup <= 1 {
		t.Errorf("app speedup %v, want > 1", est.AppSpeedup)
	}
	if est.AcceleratedCycles >= float64(est.BaselineCycles) {
		t.Error("accelerated time not below baseline")
	}
}

// TestBreakevenIsZeroGainPoint verifies Eq. 1's meaning inside the model:
// accelerating a candidate by exactly its breakeven speedup yields zero net
// gain for that candidate.
func TestBreakevenIsZeroGainPoint(t *testing.T) {
	tr := trimmedPipeline(t, 50000)
	var cand *Candidate
	for i := range tr.Candidates {
		if tr.Candidates[i].Name == "consumer" {
			cand = &tr.Candidates[i]
		}
	}
	if cand == nil {
		t.Fatal("consumer candidate missing")
	}
	est, err := tr.EstimateOffload(OffloadConfig{Speedup: cand.Breakeven})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range est.Selected {
		if g.Name != "consumer" {
			continue
		}
		if rel := math.Abs(g.Gain) / float64(g.SwCycles); rel > 1e-9 {
			t.Errorf("gain at breakeven = %v (rel %v), want ~0", g.Gain, rel)
		}
	}
	// At a speedup just above breakeven the candidate's gain is positive.
	est2, err := tr.EstimateOffload(OffloadConfig{Speedup: cand.Breakeven * 1.01})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, g := range est2.Selected {
		if g.Name == "consumer" && g.Gain > 0 {
			found = true
		}
	}
	if !found {
		t.Error("candidate not profitable just above its breakeven")
	}
}

func TestOffloadRespectsAcceleratorBudget(t *testing.T) {
	tr := trimmedPipeline(t, 50000)
	all, err := tr.EstimateOffload(OffloadConfig{Speedup: 10})
	if err != nil {
		t.Fatal(err)
	}
	one, err := tr.EstimateOffload(OffloadConfig{Speedup: 10, MaxAccelerators: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Selected) > 1 {
		t.Errorf("budget ignored: %d selected", len(one.Selected))
	}
	if one.AppSpeedup > all.AppSpeedup+1e-9 {
		t.Error("one accelerator beats unlimited accelerators")
	}
	// The single pick is the best gain.
	if len(one.Selected) == 1 && len(all.Selected) > 0 &&
		one.Selected[0].Gain+1e-9 < all.Selected[0].Gain {
		t.Error("budgeted selection not greedy-best")
	}
}

// TestSpeedupCurveMonotone sweeps OffloadConfig.Speedup: a faster
// accelerator can only raise the application speedup, and never past
// Amdahl's bound.
func TestSpeedupCurveMonotone(t *testing.T) {
	tr := trimmedPipeline(t, 50000)
	var curve []float64
	for _, s := range []float64{1.5, 2, 4, 8, 16, 64} {
		est, err := tr.EstimateOffload(OffloadConfig{Speedup: s})
		if err != nil {
			t.Fatal(err)
		}
		curve = append(curve, est.AppSpeedup)
	}
	for i := 1; i < len(curve); i++ {
		if curve[i]+1e-9 < curve[i-1] {
			t.Errorf("app speedup regressed: %v", curve)
		}
	}
	// Amdahl: even infinite candidate speedup is bounded by uncovered time.
	last := curve[len(curve)-1]
	bound := 1 / (1 - tr.Coverage())
	if last > bound*1.05 {
		t.Errorf("speedup %v exceeds Amdahl bound %v", last, bound)
	}
}

func TestOffloadRejectsBadSpeedup(t *testing.T) {
	tr := trimmedPipeline(t, 1000)
	if _, err := tr.EstimateOffload(OffloadConfig{Speedup: 1}); err == nil {
		t.Error("speedup 1 accepted")
	}
	if _, err := tr.EstimateOffload(OffloadConfig{Speedup: 0}); err == nil {
		t.Error("speedup 0 accepted")
	}
}
