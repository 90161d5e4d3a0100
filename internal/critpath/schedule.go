package critpath

import (
	"fmt"

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

// AnalyzeWithComm is Analyze with communication edges charged: the critical
// path then reflects not only dependent computation but the cost of moving
// data between the chains' endpoints.
func AnalyzeWithComm(tr *trace.Trace, cfg CommConfig) (*Analysis, error) {
	if cfg.OpsPerByte < 0 {
		return nil, fmt.Errorf("critpath: negative OpsPerByte")
	}
	g, err := buildGraph(tr)
	if err != nil {
		return nil, err
	}
	a := &Analysis{SerialOps: g.serialOps, Segments: uint64(len(g.nodes))}
	// Longest path over the DAG with edge weights: nodes are already in
	// creation (topological) order.
	incl := make([]float64, len(g.nodes))
	pred := make([]int, len(g.nodes))
	best := -1
	for i, n := range g.nodes {
		pred[i] = -1
		for _, e := range n.preds {
			w := incl[e.src] + float64(e.bytes)*cfg.OpsPerByte
			if w > incl[i] {
				incl[i] = w
				pred[i] = e.src
			}
		}
		incl[i] += float64(n.self)
		if best < 0 || incl[i] > incl[best] {
			best = i
		}
	}
	if best >= 0 {
		a.CriticalOps = uint64(incl[best])
		var ctxs []int32
		for i := best; i >= 0; i = pred[i] {
			ctxs = append(ctxs, g.nodes[i].ctx)
		}
		for i, j := 0, len(ctxs)-1; i < j; i, j = i+1, j-1 {
			ctxs[i], ctxs[j] = ctxs[j], ctxs[i]
		}
		for _, c := range ctxs {
			if len(a.ChainCtxs) == 0 || a.ChainCtxs[len(a.ChainCtxs)-1] != c {
				a.ChainCtxs = append(a.ChainCtxs, c)
			}
		}
		for _, c := range a.ChainCtxs {
			a.Chain = append(a.Chain, tr.CtxName(c))
		}
	}
	return a, nil
}

// --- explicit DAG construction (shared by scheduling) ---

type gEdge struct {
	src   int
	bytes uint64 // 0 for sequential and call edges
}

type gNode struct {
	ctx   int32
	self  uint64
	preds []gEdge
}

type graph struct {
	nodes     []gNode
	serialOps uint64
}

// buildGraph replays the event stream into an explicit segment DAG with the
// same semantics as Analyze (sequential, call and data edges; non-blocking
// returns).
func buildGraph(tr *trace.Trace) (*graph, error) {
	g := &graph{}
	type callInfo struct {
		ctx       int32
		last      int // latest closed node, -1 if none
		enterPred int
		open      int // in-construction node, -1 if none
	}
	var calls callIndex[callInfo]
	var infos arena[callInfo]
	var stack []*callInfo

	ensureOpen := func(ci *callInfo) int {
		if ci.open >= 0 {
			return ci.open
		}
		idx := len(g.nodes)
		n := gNode{ctx: ci.ctx}
		switch {
		case ci.last >= 0:
			n.preds = append(n.preds, gEdge{src: ci.last})
		case ci.enterPred >= 0:
			n.preds = append(n.preds, gEdge{src: ci.enterPred})
		}
		g.nodes = append(g.nodes, n)
		ci.open = idx
		return idx
	}

	for i := range tr.Events {
		e := &tr.Events[i]
		switch e.Kind {
		case trace.KindEnter:
			ci := infos.alloc()
			*ci = callInfo{ctx: e.Ctx, last: -1, enterPred: -1, open: -1}
			if len(stack) > 0 {
				parent := stack[len(stack)-1]
				if parent.last >= 0 {
					ci.enterPred = parent.last
				} else if parent.enterPred >= 0 {
					ci.enterPred = parent.enterPred
				}
			}
			calls.put(e.Call, ci, uint64(i))
			stack = append(stack, ci)
		case trace.KindLeave:
			if len(stack) == 0 {
				return nil, fmt.Errorf("critpath: unbalanced leave of call %d", e.Call)
			}
			stack = stack[:len(stack)-1]
		case trace.KindComm:
			ci := calls.get(e.Call)
			if ci == nil {
				return nil, fmt.Errorf("critpath: comm into unknown call %d", e.Call)
			}
			idx := ensureOpen(ci)
			if src := calls.get(e.SrcCall); src != nil && e.SrcCtx >= 0 {
				from := src.last
				if from < 0 {
					from = src.enterPred
				}
				if from >= 0 {
					g.nodes[idx].preds = append(g.nodes[idx].preds,
						gEdge{src: from, bytes: e.Bytes})
				}
			}
		case trace.KindOps:
			ci := calls.get(e.Call)
			if ci == nil {
				return nil, fmt.Errorf("critpath: ops for unknown call %d", e.Call)
			}
			idx := ensureOpen(ci)
			g.nodes[idx].self = e.Ops
			g.serialOps += e.Ops
			ci.last = idx
			ci.open = -1
		}
	}
	return g, nil
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
	g, err := buildGraph(tr)
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

	// Nodes are created in topological order (a node's preds always
	// precede it), so scheduling in creation order never violates a
	// dependency.
	for idx := range g.nodes {
		n := &g.nodes[idx]
		var readyAt uint64
		bestSrc, bestBytes := -1, uint64(0)
		for _, e := range n.preds {
			if finish[e.src] > readyAt {
				readyAt = finish[e.src]
			}
			if e.bytes > bestBytes {
				bestBytes = e.bytes
				bestSrc = e.src
			}
		}
		// Candidate slots: the heaviest producer's slot first, then the
		// earliest-free slot.
		pick := 0
		if bestSrc >= 0 {
			pick = placed[bestSrc]
		}
		bestSlot, bestStart := pick, maxU64(free[pick], readyAt)
		for s := 0; s < slots; s++ {
			if start := maxU64(free[s], readyAt); start < bestStart {
				bestSlot, bestStart = s, start
			}
		}
		placed[idx] = bestSlot
		finish[idx] = bestStart + n.self
		free[bestSlot] = finish[idx]
		res.SlotLoad[bestSlot] += n.self
		if finish[idx] > res.Makespan {
			res.Makespan = finish[idx]
		}
		for _, e := range n.preds {
			if e.bytes > 0 && placed[e.src] != bestSlot {
				res.CrossSlotBytes += e.bytes
			}
		}
	}
	return res, nil
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
