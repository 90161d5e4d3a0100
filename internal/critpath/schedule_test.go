package critpath

import (
	"bytes"
	"math"
	"testing"

	"sigil/internal/trace"
)

func TestAnalyzeWithCommMatchesBaselineAtZeroCost(t *testing.T) {
	tr := handTrace()
	base, err := Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	comm, err := AnalyzeWithComm(tr, CommConfig{OpsPerByte: 0})
	if err != nil {
		t.Fatal(err)
	}
	if comm.CriticalOps != base.CriticalOps || comm.SerialOps != base.SerialOps {
		t.Errorf("zero-cost comm analysis differs: %d/%d vs %d/%d",
			comm.CriticalOps, comm.SerialOps, base.CriticalOps, base.SerialOps)
	}
	if len(comm.Chain) != len(base.Chain) {
		t.Errorf("chains differ: %v vs %v", comm.Chain, base.Chain)
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
	if _, err := AnalyzeWithComm(handTrace(), CommConfig{OpsPerByte: -1}); err == nil {
		t.Error("negative cost accepted")
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

func TestGraphMatchesIncrementalAnalysis(t *testing.T) {
	// The explicit DAG (schedule.go) and the incremental longest path
	// (critpath.go) must agree on every workload-shaped trace we have.
	for _, tr := range []*trace.Trace{handTrace(), handTraceNoComm()} {
		a, err := Analyze(tr)
		if err != nil {
			t.Fatal(err)
		}
		c, err := AnalyzeWithComm(tr, CommConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if a.CriticalOps != c.CriticalOps || a.SerialOps != c.SerialOps || a.Segments != c.Segments {
			t.Errorf("DAG/incremental disagree: %+v vs %+v", c, a)
		}
	}

	// Workload event files, dense and renumbered sparsely: both passes
	// resolve calls through the same index, and neither may depend on
	// which side of it serves a lookup.
	for _, s := range workloadStreams(t) {
		var dense *Analysis
		for _, in := range []struct {
			name string
			data []byte
		}{{s.name, s.dense}, {s.name + " renumbered", s.sparse}} {
			tr, err := trace.ReadAll(bytes.NewReader(in.data))
			if err != nil {
				t.Fatalf("%s: %v", in.name, err)
			}
			a, err := Analyze(tr)
			if err != nil {
				t.Fatalf("%s: Analyze: %v", in.name, err)
			}
			c, err := AnalyzeWithComm(tr, CommConfig{})
			if err != nil {
				t.Fatalf("%s: AnalyzeWithComm: %v", in.name, err)
			}
			if d := diffAnalysis(c, a); d != "" {
				t.Errorf("%s: DAG vs incremental: %s", in.name, d)
			}
			if dense == nil {
				dense = c
			} else if d := diffAnalysis(c, dense); d != "" {
				t.Errorf("%s vs dense: %s", in.name, d)
			}
		}
	}
}
