// Package critpath post-processes Sigil event files into dependency chains
// and extracts the critical path, following §II-C2 of the paper: each node
// is one computation segment of a function call; edges are the sequential
// order within a call, the call edge from the caller's preceding segment,
// and the data-transfer edges between calls. Calls are modelled as
// non-blocking — a return adds no callee→caller edge, only data does — so
// the longest chain bounds the workload's function-level parallelism.
package critpath

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"

	"sigil/internal/trace"
)

// node is one computation segment (a box of the paper's Figure 3). The
// inclusive cost is the self-cost plus the maximum inclusive cost over
// predecessors — the longest dependent chain from the program's start.
type node struct {
	ctx  int32
	self uint64
	incl uint64
	pred *node // predecessor on the longest incoming chain
}

// callState tracks the chain bookkeeping for one function call.
type callState struct {
	ctx     int32
	callNum uint64
	// last is the most recent closed segment node of this call; data
	// consumers of this call's output depend on it.
	last *node
	// enterPred is the caller's segment node at the time of the call —
	// the call edge source for this call's first segment.
	enterPred *node
	// open is the in-construction segment (created lazily by the first
	// comm/ops after the previous segment closed).
	open *node
	// maxPred accumulates the best predecessor for the open segment.
	maxPred *node
}

// Analysis is the result of processing one event stream.
type Analysis struct {
	// SerialOps is the program's total operation count — its serial
	// length under the methodology's instruction-count time proxy.
	SerialOps uint64
	// CriticalOps is the longest dependent chain's operation count.
	CriticalOps uint64
	// Segments is the number of chain nodes constructed.
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

// analyzer is the incremental chain-construction state machine, shared by
// the in-memory Analyze and the streaming AnalyzeReader. Call states and
// segment nodes come from chunked arenas: a pass creates one of each per
// call and per segment, and those are most of its allocations.
type analyzer struct {
	a      *Analysis
	calls  callIndex[callState]
	states arena[callState]
	nodes  arena[node]
	stack  []*callState
	best   *node
	names  map[int32]string
	events uint64 // events stepped so far, bounding the dense call index
}

func newAnalyzer() *analyzer {
	return &analyzer{
		a:     &Analysis{},
		names: make(map[int32]string),
	}
}

func (z *analyzer) ensureOpen(cs *callState) *node {
	if cs.open == nil {
		cs.open = z.nodes.alloc()
		cs.open.ctx = cs.ctx
		z.a.Segments++
		// Sequential edge from the call's previous segment, or the
		// call edge for the first segment.
		switch {
		case cs.last != nil:
			cs.maxPred = cs.last
		case cs.enterPred != nil:
			cs.maxPred = cs.enterPred
		default:
			cs.maxPred = nil
		}
	}
	return cs.open
}

func (z *analyzer) step(e *trace.Event) error {
	z.events++
	switch e.Kind {
	case trace.KindDefCtx:
		z.names[e.Ctx] = e.Name

	case trace.KindEnter:
		cs := z.states.alloc()
		cs.ctx, cs.callNum = e.Ctx, e.Call
		if len(z.stack) > 0 {
			parent := z.stack[len(z.stack)-1]
			// The caller's segment closed just before this Enter
			// (the profiler emits Ops first), so its last node is
			// the call edge source.
			if parent.last != nil {
				cs.enterPred = parent.last
			} else if parent.enterPred != nil {
				cs.enterPred = parent.enterPred
			}
		}
		z.calls.put(e.Call, cs, z.events)
		z.stack = append(z.stack, cs)

	case trace.KindLeave:
		if len(z.stack) == 0 {
			return fmt.Errorf("critpath: leave of call %d with empty stack", e.Call)
		}
		cs := z.stack[len(z.stack)-1]
		if cs.callNum != e.Call {
			return fmt.Errorf("critpath: leave of call %d while call %d is open", e.Call, cs.callNum)
		}
		z.stack = z.stack[:len(z.stack)-1]

	case trace.KindComm:
		cs := z.calls.get(e.Call)
		if cs == nil {
			return fmt.Errorf("critpath: comm into unknown call %d", e.Call)
		}
		z.ensureOpen(cs)
		// Producer's latest segment; synthetic producers (@startup,
		// @kernel) and producers with no recorded segment impose no
		// chain dependency.
		if src := z.calls.get(e.SrcCall); src != nil && e.SrcCtx >= 0 {
			var srcNode *node
			if src.last != nil {
				srcNode = src.last
			} else if src.enterPred != nil {
				srcNode = src.enterPred
			}
			if srcNode != nil && (cs.maxPred == nil || srcNode.incl > cs.maxPred.incl) {
				cs.maxPred = srcNode
			}
		}

	case trace.KindOps:
		cs := z.calls.get(e.Call)
		if cs == nil {
			return fmt.Errorf("critpath: ops for unknown call %d", e.Call)
		}
		n := z.ensureOpen(cs)
		n.self = e.Ops
		z.a.SerialOps += e.Ops
		n.pred = cs.maxPred
		if n.pred != nil {
			n.incl = n.pred.incl + n.self
		} else {
			n.incl = n.self
		}
		if z.best == nil || n.incl > z.best.incl {
			z.best = n
		}
		cs.last = n
		cs.open = nil
		cs.maxPred = nil

	case trace.KindSys:
		// Syscalls impose no chain structure beyond the comm edges
		// already recorded for their buffers.
	}
	return nil
}

func (z *analyzer) finish(name func(int32) string) *Analysis {
	a := z.a
	if z.best != nil {
		a.CriticalOps = z.best.incl
		for n := z.best; n != nil; n = n.pred {
			a.ChainCtxs = append(a.ChainCtxs, n.ctx)
		}
		// Reverse into main→leaf order and collapse repeats.
		for i, j := 0, len(a.ChainCtxs)-1; i < j; i, j = i+1, j-1 {
			a.ChainCtxs[i], a.ChainCtxs[j] = a.ChainCtxs[j], a.ChainCtxs[i]
		}
		var compact []int32
		for _, c := range a.ChainCtxs {
			if len(compact) == 0 || compact[len(compact)-1] != c {
				compact = append(compact, c)
			}
		}
		a.ChainCtxs = compact
		for _, c := range a.ChainCtxs {
			a.Chain = append(a.Chain, name(c))
		}
	}
	return a
}

// Analyze builds dependency chains from an event stream and extracts the
// critical path.
func Analyze(tr *trace.Trace) (*Analysis, error) {
	z := newAnalyzer()
	for i := range tr.Events {
		if err := z.step(&tr.Events[i]); err != nil {
			return nil, err
		}
	}
	return z.finish(tr.CtxName), nil
}

// AnalyzeReader runs the same analysis over an encoded event file without
// materializing it: each event is processed as it is decoded, so traces
// larger than memory stream through in one pass.
func AnalyzeReader(r io.Reader) (*Analysis, error) {
	z := newAnalyzer()
	rd := trace.NewReader(r)
	for {
		e, err := rd.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := z.step(&e); err != nil {
			return nil, err
		}
	}
	return z.finish(func(ctx int32) string {
		switch ctx {
		case trace.CtxStartup:
			return "@startup"
		case trace.CtxKernel:
			return "@kernel"
		}
		if n, ok := z.names[ctx]; ok {
			return n
		}
		return fmt.Sprintf("<ctx#%d>", ctx)
	}), nil
}

// AnalyzeFile loads path with the parallel frame decoder (workers <= 0
// selects one worker per CPU) and analyzes it. The chain construction
// itself is inherently sequential, but on framed (v3) files the decode —
// checksum verification, decompression, varint decoding — fans out across
// the pool, which dominates load time for large traces. The seekable file
// also lets the reader preallocate from the footer's event count.
func AnalyzeFile(path string, workers int) (*Analysis, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	tr, err := trace.ReadAllWorkers(f, workers)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return Analyze(tr)
}
