package critpath

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"sigil/internal/core"
	"sigil/internal/trace"
	"sigil/internal/vm"
)

// handTrace builds: main(5 ops) → call A(10 ops) → main(1 op) →
// call B(20 ops, consumes A's output) → main(2 ops).
// Longest chain: main.seg1(5) → A(10) → B(20) = 35; serial = 38.
func handTrace() *trace.Trace {
	b := &trace.Buffer{}
	emit := func(e trace.Event) { _ = b.Emit(e) }
	emit(trace.Event{Kind: trace.KindDefCtx, Ctx: 0, SrcCtx: -1, Name: "main"})
	emit(trace.Event{Kind: trace.KindDefCtx, Ctx: 1, SrcCtx: 0, Name: "A"})
	emit(trace.Event{Kind: trace.KindDefCtx, Ctx: 2, SrcCtx: 0, Name: "B"})
	emit(trace.Event{Kind: trace.KindEnter, Ctx: 0, Call: 1})
	emit(trace.Event{Kind: trace.KindOps, Ctx: 0, Call: 1, Ops: 5})
	emit(trace.Event{Kind: trace.KindEnter, Ctx: 1, Call: 2})
	emit(trace.Event{Kind: trace.KindOps, Ctx: 1, Call: 2, Ops: 10})
	emit(trace.Event{Kind: trace.KindLeave, Ctx: 1, Call: 2})
	emit(trace.Event{Kind: trace.KindOps, Ctx: 0, Call: 1, Ops: 1})
	emit(trace.Event{Kind: trace.KindEnter, Ctx: 2, Call: 3})
	emit(trace.Event{Kind: trace.KindComm, Ctx: 2, Call: 3, SrcCtx: 1, SrcCall: 2, Bytes: 64})
	emit(trace.Event{Kind: trace.KindOps, Ctx: 2, Call: 3, Ops: 20})
	emit(trace.Event{Kind: trace.KindLeave, Ctx: 2, Call: 3})
	emit(trace.Event{Kind: trace.KindOps, Ctx: 0, Call: 1, Ops: 2})
	emit(trace.Event{Kind: trace.KindLeave, Ctx: 0, Call: 1})
	return trace.FromBuffer(b)
}

func TestHandBuiltChain(t *testing.T) {
	a, err := Analyze(handTrace())
	if err != nil {
		t.Fatal(err)
	}
	if a.SerialOps != 38 {
		t.Errorf("serial = %d, want 38", a.SerialOps)
	}
	if a.CriticalOps != 35 {
		t.Errorf("critical = %d, want 35", a.CriticalOps)
	}
	want := []string{"main", "A", "B"}
	if len(a.Chain) != 3 || a.Chain[0] != want[0] || a.Chain[1] != want[1] || a.Chain[2] != want[2] {
		t.Errorf("chain = %v, want %v", a.Chain, want)
	}
	if p := a.Parallelism(); math.Abs(p-38.0/35.0) > 1e-9 {
		t.Errorf("parallelism = %v", p)
	}
}

// handTraceNoComm is the same shape but without the A→B data edge: B only
// depends on main, so A and B overlap and the critical path drops.
func handTraceNoComm() *trace.Trace {
	tr := handTrace()
	var events []trace.Event
	for _, e := range tr.Events {
		if e.Kind != trace.KindComm {
			events = append(events, e)
		}
	}
	tr.Events = events
	return tr
}

func TestNonBlockingCallsOverlap(t *testing.T) {
	a, err := Analyze(handTraceNoComm())
	if err != nil {
		t.Fatal(err)
	}
	// B's only pred is main's second segment: 5+1+20 = 26.
	if a.CriticalOps != 26 {
		t.Errorf("critical = %d, want 26 (A and B overlap)", a.CriticalOps)
	}
}

// tieTrace gives B two predecessors of equal length: its call edge from
// main's first segment (5 ops) and a data edge from C, which retired 0 ops
// after that segment. B continues the call edge: a data edge wins only
// when it is strictly longer.
func tieTrace() *trace.Trace {
	b := &trace.Buffer{}
	emit := func(e trace.Event) { _ = b.Emit(e) }
	emit(trace.Event{Kind: trace.KindDefCtx, Ctx: 0, SrcCtx: -1, Name: "main"})
	emit(trace.Event{Kind: trace.KindDefCtx, Ctx: 1, SrcCtx: 0, Name: "B"})
	emit(trace.Event{Kind: trace.KindDefCtx, Ctx: 2, SrcCtx: 0, Name: "C"})
	emit(trace.Event{Kind: trace.KindEnter, Ctx: 0, Call: 1})
	emit(trace.Event{Kind: trace.KindOps, Ctx: 0, Call: 1, Ops: 5})
	emit(trace.Event{Kind: trace.KindEnter, Ctx: 2, Call: 2})
	emit(trace.Event{Kind: trace.KindOps, Ctx: 2, Call: 2, Ops: 0})
	emit(trace.Event{Kind: trace.KindLeave, Ctx: 2, Call: 2})
	emit(trace.Event{Kind: trace.KindEnter, Ctx: 1, Call: 3})
	emit(trace.Event{Kind: trace.KindComm, Ctx: 1, Call: 3, SrcCtx: 2, SrcCall: 2, Bytes: 8})
	emit(trace.Event{Kind: trace.KindOps, Ctx: 1, Call: 3, Ops: 7})
	emit(trace.Event{Kind: trace.KindLeave, Ctx: 1, Call: 3})
	emit(trace.Event{Kind: trace.KindLeave, Ctx: 0, Call: 1})
	return trace.FromBuffer(b)
}

func TestTieKeepsCallPredecessor(t *testing.T) {
	a, err := Analyze(tieTrace())
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(a.Chain, ">"); got != "main>B" || a.CriticalOps != 12 {
		t.Errorf("chain %s of %d ops, want main>B of 12", got, a.CriticalOps)
	}
}

func runWithEvents(t *testing.T, p *vm.Program) *trace.Trace {
	t.Helper()
	var buf trace.Buffer
	if _, err := core.Run(p, core.Options{Events: &buf}, nil); err != nil {
		t.Fatal(err)
	}
	return trace.FromBuffer(&buf)
}

// heavyLoop emits a loop with roughly n arithmetic ops into f.
func heavyLoop(f *vm.FuncBuilder, n int64) {
	f.Movi(vm.R20, 0)
	f.Movi(vm.R21, n)
	top := f.Here()
	f.Addi(vm.R20, vm.R20, 1)
	f.Blt(vm.R20, vm.R21, top)
}

func TestIndependentChildrenParallel(t *testing.T) {
	// main writes two disjoint buffers; A consumes one, B the other. With
	// non-blocking calls the two heavy children overlap: parallelism ≈ 2.
	b := vm.NewBuilder()
	buf := b.Reserve("buf", 128)
	main := b.Func("main")
	main.MoviU(vm.R1, buf)
	main.Movi(vm.R2, 1)
	main.Store(vm.R1, 0, vm.R2, 8)
	main.Store(vm.R1, 64, vm.R2, 8)
	main.Call("workA")
	main.Call("workB")
	main.Halt()
	fa := b.Func("workA")
	fa.Load(vm.R3, vm.R1, 0, 8)
	heavyLoop(fa, 5000)
	fa.Ret()
	fb := b.Func("workB")
	fb.Load(vm.R3, vm.R1, 64, 8)
	heavyLoop(fb, 5000)
	fb.Ret()

	a, err := Analyze(runWithEvents(t, mustBuild(b)))
	if err != nil {
		t.Fatal(err)
	}
	if p := a.Parallelism(); p < 1.7 || p > 2.3 {
		t.Errorf("parallelism = %v, want ≈ 2", p)
	}
}

func TestDependentChainSerial(t *testing.T) {
	// A produces what B consumes: no overlap, parallelism ≈ 1.
	b := vm.NewBuilder()
	buf := b.Reserve("buf", 64)
	main := b.Func("main")
	main.MoviU(vm.R1, buf)
	main.Call("stage1")
	main.Call("stage2")
	main.Halt()
	s1 := b.Func("stage1")
	heavyLoop(s1, 5000)
	s1.Store(vm.R1, 0, vm.R20, 8)
	s1.Ret()
	s2 := b.Func("stage2")
	s2.Load(vm.R3, vm.R1, 0, 8)
	heavyLoop(s2, 5000)
	s2.Ret()

	a, err := Analyze(runWithEvents(t, mustBuild(b)))
	if err != nil {
		t.Fatal(err)
	}
	if p := a.Parallelism(); p > 1.2 {
		t.Errorf("parallelism = %v, want ≈ 1 for a dependent chain", p)
	}
	// The chain should pass through both stages.
	has := func(name string) bool {
		for _, c := range a.Chain {
			if c == name {
				return true
			}
		}
		return false
	}
	if !has("stage1") || !has("stage2") {
		t.Errorf("chain = %v, want both stages", a.Chain)
	}
}

func TestManyShortPathsHighParallelism(t *testing.T) {
	// Streamcluster-like: many independent short calls each fed by main.
	b := vm.NewBuilder()
	buf := b.Reserve("buf", 8*64)
	main := b.Func("main")
	main.MoviU(vm.R1, buf)
	main.Movi(vm.R2, 1)
	for i := int64(0); i < 8; i++ {
		main.Store(vm.R1, i*64, vm.R2, 8)
	}
	for i := int64(0); i < 8; i++ {
		main.Movi(vm.R5, i*64)
		main.Call("shortwork")
	}
	main.Halt()
	sw := b.Func("shortwork")
	sw.Add(vm.R6, vm.R1, vm.R5)
	sw.Load(vm.R3, vm.R6, 0, 8)
	heavyLoop(sw, 500)
	sw.Ret()

	a, err := Analyze(runWithEvents(t, mustBuild(b)))
	if err != nil {
		t.Fatal(err)
	}
	if p := a.Parallelism(); p < 4 {
		t.Errorf("parallelism = %v, want >= 4 for 8 independent calls", p)
	}
}

func TestSequentialSegmentsWithinCallOrdered(t *testing.T) {
	// Re-entry after a child returns must chain to the previous segment
	// of the same call (the paper's "conservatively enforce order").
	b := vm.NewBuilder()
	main := b.Func("main")
	heavyLoop(main, 100)
	main.Call("child")
	heavyLoop(main, 100)
	main.Halt()
	c := b.Func("child")
	c.Movi(vm.R1, 1)
	c.Ret()
	a, err := Analyze(runWithEvents(t, mustBuild(b)))
	if err != nil {
		t.Fatal(err)
	}
	// Each heavyLoop segment is ~102 ops (movi×2 + addi per iteration;
	// branches are not arithmetic ops). The critical path must chain
	// both main segments: ~204, not just one (~102).
	if a.CriticalOps < 200 {
		t.Errorf("critical = %d, want both main segments chained (~204)", a.CriticalOps)
	}
}

// entryPoints runs each public analysis of a trace and returns its error.
var entryPoints = []struct {
	name string
	run  func(*trace.Trace) error
}{
	{"Analyze", func(tr *trace.Trace) error { _, err := Analyze(tr); return err }},
	{"AnalyzeWithComm", func(tr *trace.Trace) error {
		_, err := AnalyzeWithComm(tr, CommConfig{OpsPerByte: 0.25})
		return err
	}},
	{"Schedule", func(tr *trace.Trace) error { _, err := Schedule(tr, 2); return err }},
}

// rejects checks that every entry point refuses the stream events.
func rejects(t *testing.T, what string, events ...trace.Event) {
	t.Helper()
	b := &trace.Buffer{}
	for _, e := range events {
		_ = b.Emit(e)
	}
	for _, ep := range entryPoints {
		if err := ep.run(trace.FromBuffer(b)); err == nil {
			t.Errorf("%s: %s accepted", ep.name, what)
		}
	}
}

func TestErrorOnUnknownCall(t *testing.T) {
	rejects(t, "ops for unknown call", trace.Event{Kind: trace.KindOps, Ctx: 0, Call: 99, Ops: 5})
	rejects(t, "comm into unknown call", trace.Event{Kind: trace.KindComm, Ctx: 0, Call: 99, Bytes: 1})
}

func TestErrorOnUnbalancedLeave(t *testing.T) {
	rejects(t, "leave with empty stack", trace.Event{Kind: trace.KindLeave, Ctx: 0, Call: 1})
	rejects(t, "leave of a call other than the open one",
		trace.Event{Kind: trace.KindEnter, Ctx: 0, Call: 1},
		trace.Event{Kind: trace.KindEnter, Ctx: 1, Call: 2},
		trace.Event{Kind: trace.KindOps, Ctx: 1, Call: 2, Ops: 3},
		trace.Event{Kind: trace.KindLeave, Ctx: 0, Call: 1})
}

func TestEmptyTrace(t *testing.T) {
	a, err := Analyze(&trace.Trace{Contexts: map[int32]trace.CtxInfo{}})
	if err != nil {
		t.Fatal(err)
	}
	if a.SerialOps != 0 || a.CriticalOps != 0 || a.Parallelism() != 1 {
		t.Errorf("empty trace analysis: %+v", a)
	}
}

func TestChainCollapsesConsecutiveDuplicates(t *testing.T) {
	a, err := Analyze(handTrace())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(a.ChainCtxs); i++ {
		if a.ChainCtxs[i] == a.ChainCtxs[i-1] {
			t.Errorf("chain has consecutive duplicate at %d: %v", i, a.ChainCtxs)
		}
	}
}

// TestHostileCallNumbersBoundMemory feeds Analyze ~1k-event streams whose
// call numbers sit just below 2^64 or jump by 2^40. The dense call index
// must not grow toward them: the pass allocates about what a densely
// numbered stream of the same shape does, and finds the same chain.
func TestHostileCallNumbersBoundMemory(t *testing.T) {
	const children = 200 // five events each
	stream := func(num func(k uint64) uint64) *trace.Trace {
		b := &trace.Buffer{}
		emit := func(e trace.Event) { _ = b.Emit(e) }
		emit(trace.Event{Kind: trace.KindDefCtx, Ctx: 0, SrcCtx: -1, Name: "main"})
		emit(trace.Event{Kind: trace.KindDefCtx, Ctx: 1, SrcCtx: 0, Name: "work"})
		emit(trace.Event{Kind: trace.KindEnter, Ctx: 0, Call: num(0)})
		for k := uint64(1); k <= children; k++ {
			emit(trace.Event{Kind: trace.KindOps, Ctx: 0, Call: num(0), Ops: 1})
			emit(trace.Event{Kind: trace.KindEnter, Ctx: 1, Call: num(k)})
			emit(trace.Event{Kind: trace.KindComm, Ctx: 1, Call: num(k), SrcCtx: 1, SrcCall: num(k - 1), Bytes: 8})
			emit(trace.Event{Kind: trace.KindOps, Ctx: 1, Call: num(k), Ops: k})
			emit(trace.Event{Kind: trace.KindLeave, Ctx: 1, Call: num(k)})
		}
		emit(trace.Event{Kind: trace.KindLeave, Ctx: 0, Call: num(0)})
		return trace.FromBuffer(b)
	}
	analyze := func(tr *trace.Trace) (*Analysis, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		a, err := Analyze(tr)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return a, after.TotalAlloc - before.TotalAlloc
	}
	want, denseBytes := analyze(stream(func(k uint64) uint64 { return k + 1 }))
	for _, h := range []struct {
		name string
		num  func(k uint64) uint64
	}{
		{"near 2^64", func(k uint64) uint64 { return math.MaxUint64 - k }},
		{"2^40 jumps", func(k uint64) uint64 { return (k + 1) << 40 }},
	} {
		got, allocated := analyze(stream(h.num))
		if d := diffAnalysis(got, want); d != "" {
			t.Errorf("%s: %s", h.name, d)
		}
		if allocated > 3*denseBytes {
			t.Errorf("%s: Analyze allocated %d bytes, dense numbering %d", h.name, allocated, denseBytes)
		}
	}
}
