// Package critpath post-processes Sigil event files into dependency chains
// and extracts the critical path, following §II-C2 of the paper: each node
// is one computation segment of a function call; edges are the sequential
// order within a call, the call edge from the caller's preceding segment,
// and the data-transfer edges between calls. Calls are modelled as
// non-blocking — a return adds no callee→caller edge, only data does — so
// the longest chain bounds the workload's function-level parallelism.
package critpath

import (
	"fmt"
	"math"
	"slices"

	"sigil/internal/trace"
)

// Analysis is the result of processing one event stream.
type Analysis struct {
	// SerialOps is the program's total operation count — its serial
	// length under the methodology's instruction-count time proxy.
	SerialOps uint64
	// CriticalOps is the longest dependent chain's operation count.
	CriticalOps uint64
	// Segments is the number of computation segments the stream began.
	Segments uint64
	// Chain lists the critical path's function names from main to leaf
	// (consecutive duplicates collapsed), the form §IV-C reports.
	Chain []string
	// ChainCtxs is the same path as context IDs.
	ChainCtxs []int32
}

// Parallelism returns the maximum theoretical function-level speedup: the
// ratio of serial length to critical path length (Fig 13's metric).
func (a *Analysis) Parallelism() float64 {
	if a.CriticalOps == 0 {
		if a.SerialOps == 0 {
			return 1
		}
		return float64(a.SerialOps)
	}
	return float64(a.SerialOps) / float64(a.CriticalOps)
}

// Analyze builds dependency chains from an event stream and extracts the
// critical path: AnalyzeWithComm with free communication.
func Analyze(tr *trace.Trace) (*Analysis, error) {
	return AnalyzeWithComm(tr, CommConfig{})
}

// dag is an event stream's segment DAG (a box of the paper's Figure 3 per
// node). Its nodes are the segments that closed, in the order they closed,
// which is topological: each of a segment's predecessors had closed before
// the edge from it was recorded. In a stream the profiler wrote, a
// segment's events are adjacent, so this is also the order segments began.
type dag struct {
	nodes []node
	edges []edge
	// segments counts every segment begun. One that never closes (the
	// last segment of a cut stream) is no node: it retired no recorded
	// operations, and nothing can depend on it.
	segments  uint64
	serialOps uint64
}

// node is one closed segment.
type node struct {
	self  uint64 // operations the segment retired
	ctx   int32
	seq   int32 // sequential or call predecessor, -1 if none
	edges int32 // first incoming data edge, -1 if none
}

// edge is a data-transfer edge, linked to the next one into the same
// segment in stream order.
type edge struct {
	bytes uint64
	src   int32 // producing segment
	next  int32 // -1 if none
}

// callState is the replay's bookkeeping for one function call.
type callState struct {
	num uint64
	ctx int32
	// tail is the call's latest closed segment or, until it has one, the
	// caller's tail at the call; -1 if neither exists. The call's next
	// segment, its callees' first segments and the consumers of its data
	// depend on it.
	tail int32
	// The open segment's predecessor and first and last data edges.
	seq, first, last int32
	open             bool
}

// replay walks the event stream once into its segment DAG. It is the only
// pass over the events: Analyze, AnalyzeWithComm and Schedule all work on
// its result. Call states come from a chunked arena, one per call.
func replay(tr *trace.Trace) (*dag, error) {
	if len(tr.Events) > math.MaxInt32 {
		return nil, fmt.Errorf("critpath: %d events overflow the segment index", len(tr.Events))
	}
	// A segment closes with an Ops event inside a call that has an Enter
	// and a Leave, and a call has at most one segment more than it has
	// callees, so a complete stream has fewer segments than half its
	// events.
	g := &dag{nodes: make([]node, 0, len(tr.Events)/2)}
	var (
		calls  callIndex[callState]
		states arena[callState]
		stack  []*callState
	)
	for i := range tr.Events {
		e := &tr.Events[i]
		switch e.Kind {
		case trace.KindEnter:
			cs := states.alloc()
			cs.num, cs.ctx, cs.tail = e.Call, e.Ctx, -1
			if len(stack) > 0 {
				// The profiler closes the caller's segment before the
				// Enter, so the caller's tail is the call edge source.
				cs.tail = stack[len(stack)-1].tail
			}
			calls.put(e.Call, cs, uint64(i)+1)
			stack = append(stack, cs)

		case trace.KindLeave:
			if len(stack) == 0 {
				return nil, fmt.Errorf("critpath: leave of call %d with empty stack", e.Call)
			}
			if top := stack[len(stack)-1]; top.num != e.Call {
				return nil, fmt.Errorf("critpath: leave of call %d while call %d is open", e.Call, top.num)
			}
			stack = stack[:len(stack)-1]

		case trace.KindComm:
			cs := calls.get(e.Call)
			if cs == nil {
				return nil, fmt.Errorf("critpath: comm into unknown call %d", e.Call)
			}
			g.open(cs)
			// Synthetic producers (@startup, @kernel) and producers with
			// no segment yet impose no chain dependency.
			if src := calls.get(e.SrcCall); src != nil && e.SrcCtx >= 0 && src.tail >= 0 {
				k := int32(len(g.edges))
				g.edges = append(g.edges, edge{bytes: e.Bytes, src: src.tail, next: -1})
				if cs.last >= 0 {
					g.edges[cs.last].next = k
				} else {
					cs.first = k
				}
				cs.last = k
			}

		case trace.KindOps:
			cs := calls.get(e.Call)
			if cs == nil {
				return nil, fmt.Errorf("critpath: ops for unknown call %d", e.Call)
			}
			g.open(cs)
			g.serialOps += e.Ops
			g.nodes = append(g.nodes, node{self: e.Ops, ctx: cs.ctx, seq: cs.seq, edges: cs.first})
			cs.tail, cs.open = int32(len(g.nodes)-1), false
		}
	}
	return g, nil
}

// open begins a segment of cs unless one is open already.
func (g *dag) open(cs *callState) {
	if !cs.open {
		cs.seq, cs.first, cs.last, cs.open = cs.tail, -1, -1, true
		g.segments++
	}
}

// pick returns node i's predecessor on its longest incoming chain and that
// chain's length, given the chain lengths incl of the nodes before i and
// opsPerByte charged per transferred byte. The sequential or call
// predecessor stays unless a data edge is strictly longer; among data
// edges, the first in stream order wins a tie.
func (g *dag) pick(i int32, incl []float64, opsPerByte float64) (int32, float64) {
	n := &g.nodes[i]
	p, w := n.seq, 0.0
	if p >= 0 {
		w = incl[p]
	}
	for k := n.edges; k >= 0; k = g.edges[k].next {
		e := &g.edges[k]
		if d := incl[e.src] + float64(e.bytes)*opsPerByte; p < 0 || d > w {
			p, w = e.src, d
		}
	}
	return p, w
}

// longestPath finds the longest chain, charging opsPerByte per transferred
// byte, and names its contexts with name. The first node to reach the
// greatest length ends it.
func (g *dag) longestPath(opsPerByte float64, name func(int32) string) *Analysis {
	a := &Analysis{SerialOps: g.serialOps, Segments: g.segments}
	incl := make([]float64, len(g.nodes))
	best := int32(-1)
	for i := range g.nodes {
		_, w := g.pick(int32(i), incl, opsPerByte)
		incl[i] = w + float64(g.nodes[i].self)
		if best < 0 || incl[i] > incl[best] {
			best = int32(i)
		}
	}
	if best < 0 {
		return a
	}
	a.CriticalOps = uint64(incl[best])
	// Walk back from the leaf, collapsing consecutive repeats.
	for i := best; i >= 0; i, _ = g.pick(i, incl, opsPerByte) {
		if c := g.nodes[i].ctx; len(a.ChainCtxs) == 0 || a.ChainCtxs[len(a.ChainCtxs)-1] != c {
			a.ChainCtxs = append(a.ChainCtxs, c)
		}
	}
	slices.Reverse(a.ChainCtxs)
	for _, c := range a.ChainCtxs {
		a.Chain = append(a.Chain, name(c))
	}
	return a
}
