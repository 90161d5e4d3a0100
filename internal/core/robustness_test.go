package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"sigil/internal/telemetry"
	"sigil/internal/trace"
	"sigil/internal/tracing"
	"sigil/internal/vm"
	"sigil/internal/workloads"
)

// spinner builds a program that loops forever (the cancellation target).
// The loop is an always-taken conditional branch so the halt stays
// statically reachable and vm.Verify accepts the program.
func spinner() *vm.Program {
	b := vm.NewBuilder()
	main := b.Func("main")
	main.Movi(vm.R1, 0)
	top := main.Here()
	main.Addi(vm.R1, vm.R1, 1)
	main.Bge(vm.R1, vm.R2, top)
	main.Halt()
	return mustBuild(b)
}

// chunkToucher builds a program that stores to `chunks` distinct shadow
// chunks (16 KiB apart at byte granularity), spinning ~24k instructions
// between touches so the budget poll (every 2^14 retired instructions)
// lands between chunk allocations rather than thousands of chunks later.
func chunkToucher(chunks int64) *vm.Program {
	b := vm.NewBuilder()
	buf := b.Reserve("buf", uint64(chunks)*16384)
	main := b.Func("main")
	main.MoviU(vm.R1, buf)
	main.Movi(vm.R2, 0)
	main.Movi(vm.R3, chunks)
	top := main.Here()
	main.Store(vm.R1, 0, vm.R2, 8)
	main.Addi(vm.R1, vm.R1, 16384)
	main.Addi(vm.R2, vm.R2, 1)
	main.Movi(vm.R4, 0)
	main.Movi(vm.R5, 8192)
	spin := main.Here()
	main.Addi(vm.R4, vm.R4, 1)
	main.Blt(vm.R4, vm.R5, spin)
	main.Blt(vm.R2, vm.R3, top)
	main.Halt()
	return mustBuild(b)
}

// assertPartial checks the invariants every salvaged Result must satisfy:
// a complete calltree with per-context aggregates that index into it.
func assertPartial(t *testing.T, res *Result) {
	t.Helper()
	if res == nil {
		t.Fatal("no partial result salvaged")
	}
	if res.Profile == nil || len(res.Profile.Nodes) == 0 {
		t.Fatal("partial result missing profile")
	}
	for id, n := range res.Profile.Nodes {
		if n == nil {
			t.Fatalf("partial profile has nil context %d", id)
		}
	}
	if len(res.Comm) > len(res.Profile.Nodes) {
		t.Errorf("comm stats for %d contexts but profile has %d",
			len(res.Comm), len(res.Profile.Nodes))
	}
	// The aggregate views must be computable from a partial result.
	_ = res.CommByFunction()
	_ = res.TotalCommunicated()
}

func TestRunContextCancel(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(10*time.Millisecond, cancel)
	start := time.Now()
	res, err := RunContext(ctx, spinner(), Options{}, nil)
	elapsed := time.Since(start)
	if elapsed > 100*time.Millisecond {
		t.Errorf("cancellation took %v, want < 100ms", elapsed)
	}
	if err == nil {
		t.Fatal("cancelled run reported success")
	}
	var cerr *vm.CancelError
	if !errors.As(err, &cerr) {
		t.Fatalf("err = %v, want *vm.CancelError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want errors.Is(context.Canceled)", err)
	}
	if cerr.Instrs == 0 {
		t.Error("cancelled before retiring any instructions")
	}
	assertPartial(t, res)
	if res.Profile.TotalInstrs == 0 {
		t.Error("partial result shows no progress")
	}
	// The run is synchronous: no goroutines may outlive it.
	for i := 0; runtime.NumGoroutine() > before && i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, spinner(), Options{}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	assertPartial(t, res)
}

func TestRunContextBudgetInstrs(t *testing.T) {
	res, err := RunContext(context.Background(), spinner(), Options{MaxInstrs: 50_000}, nil)
	var berr *BudgetError
	if !errors.As(err, &berr) {
		t.Fatalf("err = %v, want *BudgetError", err)
	}
	if berr.Resource != "instructions" {
		t.Errorf("resource = %q, want instructions", berr.Resource)
	}
	if berr.Used < berr.Limit {
		t.Errorf("budget fired early: used %d of %d", berr.Used, berr.Limit)
	}
	assertPartial(t, res)
	if res.Profile.TotalInstrs == 0 {
		t.Error("partial result shows no progress")
	}
}

func TestRunContextBudgetWall(t *testing.T) {
	start := time.Now()
	res, err := RunContext(context.Background(), spinner(), Options{MaxWall: 10 * time.Millisecond}, nil)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("wall budget took %v to fire", elapsed)
	}
	var berr *BudgetError
	if !errors.As(err, &berr) {
		t.Fatalf("err = %v, want *BudgetError", err)
	}
	if berr.Resource != "wall-clock" {
		t.Errorf("resource = %q, want wall-clock", berr.Resource)
	}
	assertPartial(t, res)
}

func TestRunContextBudgetShadowChunks(t *testing.T) {
	// 16 chunks touched against a hard budget of 4: the run must stop
	// within a poll interval of crossing the budget, far short of 16.
	res, err := RunContext(context.Background(), chunkToucher(16),
		Options{MaxShadowChunksHard: 4}, nil)
	var berr *BudgetError
	if !errors.As(err, &berr) {
		t.Fatalf("err = %v, want *BudgetError", err)
	}
	if berr.Resource != "shadow-chunks" {
		t.Errorf("resource = %q, want shadow-chunks", berr.Resource)
	}
	if berr.Used < 4 {
		t.Errorf("budget fired at %d chunks, limit 4", berr.Used)
	}
	assertPartial(t, res)
	if res.Shadow.ChunksAllocated < 4 {
		t.Errorf("partial result reports %d chunks", res.Shadow.ChunksAllocated)
	}
}

// panicSink is an event sink whose Emit panics, simulating a bug in the
// instrumentation path.
type panicSink struct{ after int }

func (s *panicSink) Emit(trace.Event) error {
	if s.after--; s.after <= 0 {
		panic("sink exploded")
	}
	return nil
}

func TestRunContextPanicSalvage(t *testing.T) {
	res, err := RunContext(context.Background(), producerConsumerProg(64, 1),
		Options{Events: &panicSink{after: 3}}, nil)
	var perr *PanicError
	if !errors.As(err, &perr) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if perr.Value != "sink exploded" {
		t.Errorf("panic value = %v", perr.Value)
	}
	if len(perr.Stack) == 0 {
		t.Error("panic error carries no stack")
	}
	assertPartial(t, res)
}

func TestRunContextVMFaultSalvage(t *testing.T) {
	b := vm.NewBuilder()
	main := b.Func("main")
	main.Movi(vm.R1, 7)
	main.Movi(vm.R2, 0)
	main.Div(vm.R3, vm.R1, vm.R2) // faults: divide by zero
	main.Halt()
	res, err := RunContext(context.Background(), mustBuild(b), Options{}, nil)
	if err == nil {
		t.Fatal("faulting program reported success")
	}
	var berr *BudgetError
	if errors.As(err, &berr) || errors.Is(err, context.Canceled) {
		t.Fatalf("fault misclassified: %v", err)
	}
	assertPartial(t, res)
}

// TestOutcome pins the one run-outcome vocabulary that run spans and run
// reports share; a passed context deadline is an interrupt, like a cancel.
func TestOutcome(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, "ok"},
		{&BudgetError{Resource: "instructions"}, "budget"},
		{fmt.Errorf("wrapped: %w", &BudgetError{}), "budget"},
		{&PanicError{Value: "boom"}, "panic"},
		{context.Canceled, "interrupted"},
		{fmt.Errorf("wrapped: %w", context.Canceled), "interrupted"},
		{context.DeadlineExceeded, "interrupted"},
		{errors.New("boom"), "error"},
	}
	for _, c := range cases {
		if got := Outcome(c.err); got != c.want {
			t.Errorf("Outcome(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

// TestRunMarkersOnEveryRun: a run records its flight-recorder markers
// whether or not a span buffer is attached, so a budget-killed run records
// the same kinds and names with and without Options.Trace, and a run whose
// sampler panics still ends its markers with run:end. Both schedules.
func TestRunMarkersOnEveryRun(t *testing.T) {
	prog, input, err := workloads.Build("vips", workloads.SimSmall)
	if err != nil {
		t.Fatal(err)
	}
	// recorded runs prog and returns the kind and name of every flight
	// event the run recorded.
	recorded := func(procs int, opts Options, setup func(*Tool)) []string {
		t.Helper()
		mark := tracing.Flight().Recorded()
		runAt(t, procs, prog, input, opts, setup)
		var got []string
		for _, e := range tracing.Flight().Snapshot() {
			if e.Seq > mark {
				got = append(got, e.Kind.String()+" "+e.Name)
			}
		}
		return got
	}
	for _, procs := range []int{1, 2} {
		budget := Options{MaxInstrs: 50_000}
		untraced := recorded(procs, budget, nil)
		budget.Trace = tracing.NewRecorder().Local("run")
		traced := recorded(procs, budget, nil)
		want := []string{"phase run:start", "budget instructions", "phase run:end"}
		if !slices.Equal(untraced, want) || !slices.Equal(traced, want) {
			t.Errorf("GOMAXPROCS %d: budget run recorded %q untraced, %q traced; want %q", procs, untraced, traced, want)
		}

		got := recorded(procs, Options{Telemetry: &telemetry.Metrics{}}, func(tool *Tool) {
			tool.evStats = func() trace.WriterStats { panic("sampler exploded") }
		})
		want = []string{"phase run:start", "panic run", "phase run:end"}
		if !slices.Equal(got, want) {
			t.Errorf("GOMAXPROCS %d: panicked run recorded %q, want %q", procs, got, want)
		}
	}
}

// producerConsumerProg mirrors producerConsumer without needing a *testing.T.
func producerConsumerProg(n, passes int64) *vm.Program {
	b := vm.NewBuilder()
	buf := b.Reserve("buf", uint64(n*8))
	main := b.Func("main")
	main.MoviU(vm.R1, buf)
	main.Movi(vm.R2, n)
	main.Movi(vm.R3, passes)
	main.Call("producer")
	main.Call("consumer")
	main.Halt()

	p := b.Func("producer")
	p.Mov(vm.R4, vm.R1)
	p.Movi(vm.R5, 0)
	top := p.Here()
	p.Store(vm.R4, 0, vm.R5, 8)
	p.Addi(vm.R4, vm.R4, 8)
	p.Addi(vm.R5, vm.R5, 1)
	p.Blt(vm.R5, vm.R2, top)
	p.Ret()

	c := b.Func("consumer")
	c.Movi(vm.R6, 0)
	pass := c.Here()
	c.Mov(vm.R4, vm.R1)
	c.Movi(vm.R5, 0)
	inner := c.Here()
	c.Load(vm.R7, vm.R4, 0, 8)
	c.Addi(vm.R4, vm.R4, 8)
	c.Addi(vm.R5, vm.R5, 1)
	c.Blt(vm.R5, vm.R2, inner)
	c.Addi(vm.R6, vm.R6, 1)
	c.Blt(vm.R6, vm.R3, pass)
	c.Ret()
	return mustBuild(b)
}
