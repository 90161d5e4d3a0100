package critpath

import (
	"math"
	"strings"
	"testing"

	"sigil/internal/trace"
)

// zeroOpTrace is main → A where main's first segment retires 0
// operations: A's first segment still continues it, so the chain is
// main → A.
func zeroOpTrace() *trace.Trace {
	b := &trace.Buffer{}
	emit := func(e trace.Event) { _ = b.Emit(e) }
	emit(trace.Event{Kind: trace.KindDefCtx, Ctx: 0, SrcCtx: -1, Name: "main"})
	emit(trace.Event{Kind: trace.KindDefCtx, Ctx: 1, SrcCtx: 0, Name: "A"})
	emit(trace.Event{Kind: trace.KindEnter, Ctx: 0, Call: 1})
	emit(trace.Event{Kind: trace.KindComm, Ctx: 0, Call: 1, SrcCtx: trace.CtxStartup, Bytes: 8})
	emit(trace.Event{Kind: trace.KindOps, Ctx: 0, Call: 1, Ops: 0})
	emit(trace.Event{Kind: trace.KindEnter, Ctx: 1, Call: 2})
	emit(trace.Event{Kind: trace.KindOps, Ctx: 1, Call: 2, Ops: 10})
	emit(trace.Event{Kind: trace.KindLeave, Ctx: 1, Call: 2})
	emit(trace.Event{Kind: trace.KindLeave, Ctx: 0, Call: 1})
	return trace.FromBuffer(b)
}

func TestAnalyzeWithCommMatchesBaselineAtZeroCost(t *testing.T) {
	for name, tr := range map[string]*trace.Trace{
		"hand": handTrace(), "hand without comm": handTraceNoComm(), "zero-op first segment": zeroOpTrace(),
	} {
		base, err := Analyze(tr)
		if err != nil {
			t.Fatal(err)
		}
		comm, err := AnalyzeWithComm(tr, CommConfig{OpsPerByte: 0})
		if err != nil {
			t.Fatal(err)
		}
		if d := diffAnalysis(comm, base); d != "" {
			t.Errorf("%s: zero-cost comm analysis differs: %s", name, d)
		}
	}
	a, err := AnalyzeWithComm(zeroOpTrace(), CommConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(a.Chain, ">"); got != "main>A" || a.CriticalOps != 10 {
		t.Errorf("zero-op first segment: chain %s of %d ops, want main>A of 10", got, a.CriticalOps)
	}
}

func TestAnalyzeWithCommChargesEdges(t *testing.T) {
	tr := handTrace() // A→B data edge carries 64 bytes; base critical = 35.
	a, err := AnalyzeWithComm(tr, CommConfig{OpsPerByte: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The A→B edge adds 64 ops of transfer: 35 + 64 = 99.
	if a.CriticalOps != 99 {
		t.Errorf("comm-charged critical = %d, want 99", a.CriticalOps)
	}
	// With expensive communication the path may change shape; at this
	// price it still runs through A and B.
	if len(a.Chain) == 0 || a.Chain[len(a.Chain)-1] != "B" {
		t.Errorf("chain = %v", a.Chain)
	}
}

func TestAnalyzeWithCommCanRerouteCriticalPath(t *testing.T) {
	// Two consumers of main's data: X receives few bytes but computes a
	// lot; Y receives many bytes and computes little. With free
	// communication X dominates; with expensive communication Y does.
	b := &trace.Buffer{}
	emit := func(e trace.Event) { _ = b.Emit(e) }
	emit(trace.Event{Kind: trace.KindDefCtx, Ctx: 0, SrcCtx: -1, Name: "main"})
	emit(trace.Event{Kind: trace.KindDefCtx, Ctx: 1, SrcCtx: 0, Name: "X"})
	emit(trace.Event{Kind: trace.KindDefCtx, Ctx: 2, SrcCtx: 0, Name: "Y"})
	emit(trace.Event{Kind: trace.KindEnter, Ctx: 0, Call: 1})
	emit(trace.Event{Kind: trace.KindOps, Ctx: 0, Call: 1, Ops: 10})
	emit(trace.Event{Kind: trace.KindEnter, Ctx: 1, Call: 2})
	emit(trace.Event{Kind: trace.KindComm, Ctx: 1, Call: 2, SrcCtx: 0, SrcCall: 1, Bytes: 1})
	emit(trace.Event{Kind: trace.KindOps, Ctx: 1, Call: 2, Ops: 100})
	emit(trace.Event{Kind: trace.KindLeave, Ctx: 1, Call: 2})
	emit(trace.Event{Kind: trace.KindEnter, Ctx: 2, Call: 3})
	emit(trace.Event{Kind: trace.KindComm, Ctx: 2, Call: 3, SrcCtx: 0, SrcCall: 1, Bytes: 1000})
	emit(trace.Event{Kind: trace.KindOps, Ctx: 2, Call: 3, Ops: 5})
	emit(trace.Event{Kind: trace.KindLeave, Ctx: 2, Call: 3})
	emit(trace.Event{Kind: trace.KindLeave, Ctx: 0, Call: 1})
	tr := trace.FromBuffer(b)

	cheap, err := AnalyzeWithComm(tr, CommConfig{OpsPerByte: 0})
	if err != nil {
		t.Fatal(err)
	}
	if cheap.Chain[len(cheap.Chain)-1] != "X" {
		t.Errorf("cheap chain ends at %v, want X", cheap.Chain)
	}
	dear, err := AnalyzeWithComm(tr, CommConfig{OpsPerByte: 1})
	if err != nil {
		t.Fatal(err)
	}
	if dear.Chain[len(dear.Chain)-1] != "Y" {
		t.Errorf("expensive chain ends at %v, want Y", dear.Chain)
	}
	if dear.CriticalOps != 10+1000+5 {
		t.Errorf("expensive critical = %d, want 1015", dear.CriticalOps)
	}
}

func TestAnalyzeWithCommRejectsNegativeCost(t *testing.T) {
	for _, cost := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := AnalyzeWithComm(handTrace(), CommConfig{OpsPerByte: cost}); err == nil {
			t.Errorf("cost %v accepted", cost)
		}
	}
}

func TestScheduleOneSlotIsSerial(t *testing.T) {
	tr := handTrace()
	r, err := Schedule(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Makespan != r.SerialOps {
		t.Errorf("1-slot makespan %d != serial %d", r.Makespan, r.SerialOps)
	}
	if s := r.Speedup(); math.Abs(s-1) > 1e-9 {
		t.Errorf("1-slot speedup %v", s)
	}
}

func TestScheduleRespectsDependencies(t *testing.T) {
	// The hand trace's chain main(5)→A(10)→B(20) bounds any schedule:
	// makespan >= critical path (35) regardless of slot count.
	tr := handTrace()
	base, _ := Analyze(tr)
	for _, slots := range []int{1, 2, 4, 16} {
		r, err := Schedule(tr, slots)
		if err != nil {
			t.Fatal(err)
		}
		if r.Makespan < base.CriticalOps {
			t.Errorf("%d slots: makespan %d below critical path %d",
				slots, r.Makespan, base.CriticalOps)
		}
		if r.Makespan > r.SerialOps {
			t.Errorf("%d slots: makespan %d above serial %d", slots, r.Makespan, r.SerialOps)
		}
		var load uint64
		for _, l := range r.SlotLoad {
			load += l
		}
		if load != r.SerialOps {
			t.Errorf("%d slots: loads sum to %d, want %d", slots, load, r.SerialOps)
		}
		if u := r.Utilization(); u <= 0 || u > 1 {
			t.Errorf("%d slots: utilization %v", slots, u)
		}
	}
}

func TestScheduleSpeedupMonotoneForParallelWork(t *testing.T) {
	// Independent children (no data deps): more slots must not hurt.
	tr := handTraceNoComm()
	prev := 0.0
	for _, slots := range []int{1, 2, 4} {
		r, err := Schedule(tr, slots)
		if err != nil {
			t.Fatal(err)
		}
		if s := r.Speedup(); s+1e-9 < prev {
			t.Errorf("speedup regressed at %d slots: %v < %v", slots, s, prev)
		} else {
			prev = s
		}
	}
}

func TestScheduleAffinityReducesCrossSlotBytes(t *testing.T) {
	// The scheduler prefers the heavy producer's slot; the hand trace's
	// single 64-byte edge should land producer and consumer together
	// when dependencies allow it.
	r, err := Schedule(handTrace(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.CrossSlotBytes != 0 {
		t.Errorf("cross-slot bytes = %d, want colocated A→B", r.CrossSlotBytes)
	}
}

func TestScheduleErrors(t *testing.T) {
	if _, err := Schedule(handTrace(), 0); err == nil {
		t.Error("zero slots accepted")
	}
	b := &trace.Buffer{}
	_ = b.Emit(trace.Event{Kind: trace.KindOps, Ctx: 0, Call: 9, Ops: 1})
	if _, err := Schedule(trace.FromBuffer(b), 2); err == nil {
		t.Error("malformed trace accepted")
	}
	if _, err := AnalyzeWithComm(trace.FromBuffer(b), CommConfig{}); err == nil {
		t.Error("malformed trace accepted by AnalyzeWithComm")
	}
}
