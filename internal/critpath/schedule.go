package critpath

import (
	"fmt"
	"math"

	"sigil/internal/trace"
)

// This file implements the two follow-ups §IV-C sketches but defers:
//
//   - a critical path that charges communication edges (the paper cites
//     full-system critical-path analysis [16] for this), via
//     AnalyzeWithComm's cost for each transferred byte; and
//   - mapping dependency chains onto a fixed number of scheduling slots
//     ("a software developer may have a fixed number of scheduling slots
//     based on the number of available cores"), via Schedule: a list
//     scheduler that respects the chain dependencies and reports the
//     resulting makespan and speedup.

// CommConfig prices data-transfer edges for communication-aware analysis.
type CommConfig struct {
	// OpsPerByte converts transferred bytes into chain length: a data
	// edge of B bytes lengthens its consumer's path by B·OpsPerByte
	// (0 reproduces the paper's pure-computation analysis).
	OpsPerByte float64
}

// AnalyzeWithComm extracts the critical path with communication edges
// charged: the path then reflects not only dependent computation but the
// cost of moving data between the chains' endpoints.
func AnalyzeWithComm(tr *trace.Trace, cfg CommConfig) (*Analysis, error) {
	if !(cfg.OpsPerByte >= 0) || math.IsInf(cfg.OpsPerByte, 1) {
		return nil, fmt.Errorf("critpath: OpsPerByte %v is not a finite non-negative number", cfg.OpsPerByte)
	}
	g, err := replay(tr)
	if err != nil {
		return nil, err
	}
	return g.longestPath(cfg.OpsPerByte, tr.CtxName), nil
}

// ScheduleResult reports a list-scheduling run: the makespan achieved on a
// fixed number of slots and the per-slot load.
type ScheduleResult struct {
	Slots     int
	Makespan  uint64
	SerialOps uint64
	// SlotLoad is the computation placed on each slot.
	SlotLoad []uint64
	// CrossSlotBytes counts data-edge bytes whose producer and consumer
	// landed on different slots — the communication the paper's
	// developer wants to minimize when mapping chains onto cores.
	CrossSlotBytes uint64
}

// Speedup is the serial length over the achieved makespan.
func (r *ScheduleResult) Speedup() float64 {
	if r.Makespan == 0 {
		return 1
	}
	return float64(r.SerialOps) / float64(r.Makespan)
}

// Utilization is mean slot load over the makespan.
func (r *ScheduleResult) Utilization() float64 {
	if r.Makespan == 0 || r.Slots == 0 {
		return 0
	}
	var sum uint64
	for _, l := range r.SlotLoad {
		sum += l
	}
	return float64(sum) / (float64(r.Makespan) * float64(r.Slots))
}

// Schedule maps the trace's dependency chains onto `slots` scheduling slots
// with a greedy earliest-finish list scheduler that prefers the slot where
// the segment's heaviest producer ran (minimizing cross-slot traffic), the
// §IV-C mapping exercise. Returns an error for slots < 1 or a malformed
// trace.
func Schedule(tr *trace.Trace, slots int) (*ScheduleResult, error) {
	if slots < 1 {
		return nil, fmt.Errorf("critpath: need at least one slot")
	}
	g, err := replay(tr)
	if err != nil {
		return nil, err
	}
	res := &ScheduleResult{
		Slots:     slots,
		SerialOps: g.serialOps,
		SlotLoad:  make([]uint64, slots),
	}
	free := make([]uint64, slots) // each slot's next free time
	finish := make([]uint64, len(g.nodes))
	placed := make([]int, len(g.nodes))

	// Nodes are in topological order, so scheduling them in order never
	// violates a dependency.
	for i := range g.nodes {
		n := &g.nodes[i]
		var readyAt uint64
		if n.seq >= 0 {
			readyAt = finish[n.seq]
		}
		heavy, heavyBytes := int32(-1), uint64(0)
		for k := n.edges; k >= 0; k = g.edges[k].next {
			e := &g.edges[k]
			readyAt = max(readyAt, finish[e.src])
			if e.bytes > heavyBytes {
				heavy, heavyBytes = e.src, e.bytes
			}
		}
		// Candidate slots: the heaviest producer's slot first, then the
		// earliest-free slot.
		slot := 0
		if heavy >= 0 {
			slot = placed[heavy]
		}
		start := max(free[slot], readyAt)
		for s, f := range free {
			if t := max(f, readyAt); t < start {
				slot, start = s, t
			}
		}
		placed[i], finish[i] = slot, start+n.self
		free[slot] = finish[i]
		res.SlotLoad[slot] += n.self
		res.Makespan = max(res.Makespan, finish[i])
		for k := n.edges; k >= 0; k = g.edges[k].next {
			if e := &g.edges[k]; e.bytes > 0 && placed[e.src] != slot {
				res.CrossSlotBytes += e.bytes
			}
		}
	}
	return res, nil
}
