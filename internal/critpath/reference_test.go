package critpath

import (
	"bytes"
	"fmt"
	"testing"

	"sigil/internal/trace"
)

// refSeg is one segment of the reference analysis.
type refSeg struct {
	ctx int32
	// preds are the segment's predecessors: the sequential or call
	// predecessor first, then the data producers in stream order.
	preds []refPred
	incl  float64 // longest chain ending here, once the segment closed
	best  *refSeg // its predecessor on that chain
}

type refPred struct {
	seg   *refSeg
	bytes uint64 // 0 for the sequential or call edge
}

// refCall is the reference's state for one function call.
type refCall struct {
	num  uint64
	ctx  int32
	last *refSeg // latest closed segment, else the caller's at the call
	open *refSeg
}

// refAnalyze is the critical-path analysis written as plainly as it can be,
// the oracle for Analyze and AnalyzeWithComm: calls live in a map, each
// segment keeps a slice of its predecessors, and a segment's longest chain
// is settled when it closes. It shares no code with the package's replay.
func refAnalyze(tr *trace.Trace, opsPerByte float64) (*Analysis, error) {
	a := &Analysis{}
	calls := make(map[uint64]*refCall)
	var stack []*refCall
	var leaf *refSeg
	segment := func(c *refCall) *refSeg {
		if c.open == nil {
			c.open = &refSeg{ctx: c.ctx}
			if c.last != nil {
				c.open.preds = append(c.open.preds, refPred{seg: c.last})
			}
			a.Segments++
		}
		return c.open
	}
	for _, e := range tr.Events {
		switch e.Kind {
		case trace.KindEnter:
			c := &refCall{num: e.Call, ctx: e.Ctx}
			if len(stack) > 0 {
				c.last = stack[len(stack)-1].last
			}
			calls[e.Call] = c
			stack = append(stack, c)
		case trace.KindLeave:
			if len(stack) == 0 || stack[len(stack)-1].num != e.Call {
				return nil, fmt.Errorf("leave of call %d is not the open call's", e.Call)
			}
			stack = stack[:len(stack)-1]
		case trace.KindComm:
			c, ok := calls[e.Call]
			if !ok {
				return nil, fmt.Errorf("comm into unknown call %d", e.Call)
			}
			s := segment(c)
			if src, ok := calls[e.SrcCall]; ok && e.SrcCtx >= 0 && src.last != nil {
				s.preds = append(s.preds, refPred{seg: src.last, bytes: e.Bytes})
			}
		case trace.KindOps:
			c, ok := calls[e.Call]
			if !ok {
				return nil, fmt.Errorf("ops for unknown call %d", e.Call)
			}
			s := segment(c)
			// Every predecessor closed before it became one, so its chain
			// is settled. The first predecessor keeps a tie.
			var w float64
			for _, p := range s.preds {
				if d := p.seg.incl + float64(p.bytes)*opsPerByte; s.best == nil || d > w {
					s.best, w = p.seg, d
				}
			}
			s.incl = w + float64(e.Ops)
			a.SerialOps += e.Ops
			if leaf == nil || s.incl > leaf.incl {
				leaf = s
			}
			c.last, c.open = s, nil
		}
	}
	if leaf == nil {
		return a, nil
	}
	a.CriticalOps = uint64(leaf.incl)
	var leafToMain []int32
	for s := leaf; s != nil; s = s.best {
		leafToMain = append(leafToMain, s.ctx)
	}
	for i := len(leafToMain) - 1; i >= 0; i-- {
		if c := leafToMain[i]; len(a.ChainCtxs) == 0 || a.ChainCtxs[len(a.ChainCtxs)-1] != c {
			a.ChainCtxs = append(a.ChainCtxs, c)
			a.Chain = append(a.Chain, tr.CtxName(c))
		}
	}
	return a, nil
}

// analyzeAt is Analyze at cost 0, the Fig 13 analysis, and AnalyzeWithComm
// at any other cost.
func analyzeAt(tr *trace.Trace, opsPerByte float64) (*Analysis, error) {
	if opsPerByte == 0 {
		return Analyze(tr)
	}
	return AnalyzeWithComm(tr, CommConfig{OpsPerByte: opsPerByte})
}

// TestAnalyzeAgainstReference holds Analyze and AnalyzeWithComm to
// refAnalyze on the hand-built traces and on every registry workload's
// event file, numbered densely as Sigil writes it and sparsely renumbered,
// which must not change the answer: the call index is a pure optimisation.
func TestAnalyzeAgainstReference(t *testing.T) {
	costs := []float64{0, 0.25}
	check := func(name string, tr *trace.Trace) []*Analysis {
		var got []*Analysis
		for _, cost := range costs {
			a, err := analyzeAt(tr, cost)
			if err != nil {
				t.Errorf("%s at %g ops/byte: %v", name, cost, err)
				return nil
			}
			want, err := refAnalyze(tr, cost)
			if err != nil {
				t.Errorf("%s at %g ops/byte: reference: %v", name, cost, err)
				return nil
			}
			if d := diffAnalysis(a, want); d != "" {
				t.Errorf("%s at %g ops/byte: %s", name, cost, d)
			}
			got = append(got, a)
		}
		return got
	}
	check("hand", handTrace())
	check("hand without comm", handTraceNoComm())
	check("zero-op first segment", zeroOpTrace())
	check("tie", tieTrace())
	decode := func(data []byte) *trace.Trace {
		tr, err := trace.ReadAll(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	for _, s := range workloadStreams(t) {
		dense := check(s.name, decode(s.dense))
		sparse := check(s.name+" renumbered", decode(s.sparse))
		if dense == nil || sparse == nil {
			continue
		}
		for i, cost := range costs {
			if d := diffAnalysis(sparse[i], dense[i]); d != "" {
				t.Errorf("%s at %g ops/byte, renumbered vs dense: %s", s.name, cost, d)
			}
		}
	}
}
