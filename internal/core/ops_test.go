package core

import (
	"testing"

	"sigil/internal/callgrind"
	"sigil/internal/trace"
	"sigil/internal/vm"
)

// opsProgram has known per-context operation counts. main runs operations
// before, between and after its calls, conversions among them; it calls
// leaf twice, then recurses six levels deep through rec, whose contexts
// fold into one past a substrate MaxDepth of 4.
func opsProgram() *vm.Program {
	b := vm.NewBuilder()
	main := b.Func("main")
	main.Movi(vm.R1, 3)
	main.FMovi(vm.F1, 2)
	main.Call("leaf")
	main.ItoF(vm.F2, vm.R1) // after a child returns, before the next call
	main.FAdd(vm.F3, vm.F1, vm.F2)
	main.Add(vm.R2, vm.R1, vm.R1)
	main.Call("leaf")
	main.Movi(vm.R1, 6) // recursion depth
	main.Call("rec")
	main.FtoI(vm.R3, vm.F3)
	main.Halt()

	leaf := b.Func("leaf")
	leaf.FMul(vm.F4, vm.F1, vm.F1)
	leaf.Addi(vm.R5, vm.R1, 1)
	leaf.Ret()

	rec := b.Func("rec")
	done := rec.NewLabel()
	rec.Movi(vm.R6, 0)
	rec.Beq(vm.R1, vm.R6, done)
	rec.Addi(vm.R1, vm.R1, -1)
	rec.FSqrt(vm.F5, vm.F1)
	rec.Call("rec")
	rec.ItoF(vm.F6, vm.R1)
	rec.Bind(done)
	rec.Ret()
	return mustBuild(b)
}

// spinProgram calls a function that loops far past vm.StopCheckInterval
// instructions, retiring integer, FP and conversion operations.
func spinProgram() *vm.Program {
	b := vm.NewBuilder()
	main := b.Func("main")
	main.Movi(vm.R1, 1)
	main.Call("spin")
	main.Halt()
	spin := b.Func("spin")
	spin.Movi(vm.R2, 1<<20)
	top := spin.Here()
	spin.Addi(vm.R1, vm.R1, 1)
	spin.FAdd(vm.F1, vm.F1, vm.F1)
	spin.ItoF(vm.F2, vm.R1)
	spin.Blt(vm.R1, vm.R2, top)
	spin.Ret()
	return mustBuild(b)
}

// opsSink sums the operations of the KindOps events it accepts. With
// panicAt > 0 it panics right after accepting the panicAt-th one, so the
// run fails at a segment boundary deep inside the program.
type opsSink struct {
	ops           uint64
	seen, panicAt int
}

func (s *opsSink) Emit(e trace.Event) error {
	if e.Kind == trace.KindOps {
		s.ops += e.Ops
		if s.seen++; s.seen == s.panicAt {
			panic("sink exploded")
		}
	}
	return nil
}

// TestOpsConservedAtCallBoundaries checks that the three op tallies agree —
// Σ KindOps.Ops in the event stream, Σ Ops() over calltree contexts, and
// the machine's OpCounts — for a complete run, a run the instruction
// budget stops mid-function, and a panic-salvaged run, on both schedules
// (GOMAXPROCS 1 inline, 2 on the worker), and checks the complete run's
// per-context counts. A sink that panics on the worker does so after the
// interpreter has run ahead, so there the machine has retired more
// operations than the sink saw; the sink must still have seen the same
// events before it panicked as it does inline.
func TestOpsConservedAtCallBoundaries(t *testing.T) {
	folded := callgrind.Options{MaxDepth: 4}
	for _, tc := range []struct {
		name    string
		prog    *vm.Program
		opts    Options
		panicAt int
		check   func(t *testing.T, err error)
	}{
		{"complete", opsProgram(), Options{Substrate: folded}, 0, noErr},
		{"budget", spinProgram(), Options{MaxInstrs: vm.StopCheckInterval}, 0, wantBudget("instructions")},
		// The sixth KindOps event closes the first rec level's segment as
		// the second one is entered.
		{"panic", opsProgram(), Options{Substrate: folded}, 6, wantPanic("sink exploded")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var sinkOps [2]uint64
			for i, procs := range []int{1, 2} {
				sink := &opsSink{panicAt: tc.panicAt}
				opts := tc.opts
				opts.Events = sink
				tool, res, err := runAt(t, procs, tc.prog, nil, opts, nil)
				tc.check(t, err)
				intOps, fpOps := tool.mach.OpCounts()
				var ctxInt, ctxFP uint64
				for _, n := range res.Profile.Nodes {
					ctxInt += n.Self.IntOps
					ctxFP += n.Self.FPOps
				}
				sinkOps[i] = sink.ops
				ranAhead := procs == 2 && tc.panicAt > 0
				if intOps == 0 || fpOps == 0 || ctxInt != intOps || ctxFP != fpOps || !ranAhead && sink.ops != intOps+fpOps {
					t.Errorf("GOMAXPROCS %d: machine int %d fp %d, contexts int %d fp %d, KindOps events %d",
						procs, intOps, fpOps, ctxInt, ctxFP, sink.ops)
				}
				if tc.name == "complete" {
					checkContextOps(t, res)
				}
			}
			if sinkOps[0] != sinkOps[1] {
				t.Errorf("KindOps events: %d inline, %d on the worker", sinkOps[0], sinkOps[1])
			}
		})
	}
}

// checkContextOps checks opsProgram's per-context operation counts.
func checkContextOps(t *testing.T, res *Result) {
	t.Helper()
	want := map[string][2]uint64{ // {int, fp}
		"main":             {5, 2},
		"main/leaf":        {2, 2},
		"main/rec":         {3, 1},
		"main/rec/rec":     {3, 1},
		"main/rec/rec/rec": {13, 4}, // four folded levels and the base case
	}
	if len(res.Profile.Nodes) != len(want) {
		t.Errorf("%d contexts, want %d", len(res.Profile.Nodes), len(want))
	}
	for _, n := range res.Profile.Nodes {
		if w := want[n.Path()]; n.Self.IntOps != w[0] || n.Self.FPOps != w[1] {
			t.Errorf("%s: int %d fp %d, want %v", n.Path(), n.Self.IntOps, n.Self.FPOps, w)
		}
	}
}
