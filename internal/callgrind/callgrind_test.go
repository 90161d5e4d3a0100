package callgrind

import (
	"testing"

	"sigil/internal/dbi"
	"sigil/internal/vm"
)

// buildCallerCallee builds: main calls a twice and b once; b also calls a.
// So function "a" appears in two contexts: main/a and main/b/a.
func buildCallerCallee(t *testing.T) *vm.Program {
	t.Helper()
	b := vm.NewBuilder()
	main := b.Func("main")
	main.Call("a")
	main.Call("a")
	main.Call("b")
	main.Halt()
	fa := b.Func("a")
	fa.Movi(vm.R1, 1)
	fa.Movi(vm.R2, 2)
	fa.Add(vm.R3, vm.R1, vm.R2)
	fa.Ret()
	fb := b.Func("b")
	fb.FMovi(vm.F1, 1.0)
	fb.FAdd(vm.F2, vm.F1, vm.F1)
	fb.Call("a")
	fb.Ret()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func runTool(t *testing.T, p *vm.Program) *Profile {
	t.Helper()
	tool := mustTool(Options{})
	if _, err := dbi.Run(p, tool, nil); err != nil {
		t.Fatal(err)
	}
	return tool.Profile()
}

func findNode(p *Profile, path string) *Node {
	for _, n := range p.Nodes {
		if n.Path() == path {
			return n
		}
	}
	return nil
}

func TestContextSeparation(t *testing.T) {
	p := runTool(t, buildCallerCallee(t))
	na := findNode(p, "main/a")
	nba := findNode(p, "main/b/a")
	if na == nil || nba == nil {
		t.Fatalf("contexts missing: main/a=%v main/b/a=%v", na, nba)
	}
	if na == nba {
		t.Fatal("contexts not separated")
	}
	if na.Calls != 2 {
		t.Errorf("main/a calls = %d, want 2", na.Calls)
	}
	if nba.Calls != 1 {
		t.Errorf("main/b/a calls = %d, want 1", nba.Calls)
	}
}

func TestSelfCostAttribution(t *testing.T) {
	p := runTool(t, buildCallerCallee(t))
	na := findNode(p, "main/a")
	// Each call to a retires movi, movi, add, ret = 4 instrs; 2 calls = 8.
	if na.Self.Instrs != 8 {
		t.Errorf("main/a instrs = %d, want 8", na.Self.Instrs)
	}
	// 3 int ops per call.
	if na.Self.IntOps != 6 {
		t.Errorf("main/a int ops = %d, want 6", na.Self.IntOps)
	}
	nb := findNode(p, "main/b")
	// b retires fmovi, fadd, call, ret = 4 self instrs (a's are separate).
	if nb.Self.Instrs != 4 {
		t.Errorf("main/b instrs = %d, want 4", nb.Self.Instrs)
	}
	if nb.Self.FPOps != 2 {
		t.Errorf("main/b fp ops = %d, want 2", nb.Self.FPOps)
	}
}

func TestInclusiveCosts(t *testing.T) {
	p := runTool(t, buildCallerCallee(t))
	nb := findNode(p, "main/b")
	inc := p.Inclusive(nb)
	// b self (4) + nested a (4) = 8.
	if inc.Instrs != 8 {
		t.Errorf("inclusive instrs = %d, want 8", inc.Instrs)
	}
	root := p.Root
	incRoot := p.Inclusive(root)
	if incRoot.Instrs != p.TotalInstrs {
		t.Errorf("root inclusive %d != total %d", incRoot.Instrs, p.TotalInstrs)
	}
}

func TestMemoryAndCacheCosts(t *testing.T) {
	b := vm.NewBuilder()
	base := b.Reserve("buf", 1<<20)
	main := b.Func("main")
	main.Call("streamer")
	main.Halt()
	s := b.Func("streamer")
	s.MoviU(vm.R1, base)
	s.MoviU(vm.R2, base+1<<20)
	top := s.Here()
	s.Store(vm.R1, 0, vm.R3, 8)
	s.Addi(vm.R1, vm.R1, 64)
	s.Bltu(vm.R1, vm.R2, top)
	s.Ret()
	p := runTool(t, mustBuild(b))
	n := findNode(p, "main/streamer")
	if n == nil {
		t.Fatal("streamer context missing")
	}
	writes := uint64(1 << 20 / 64)
	if n.Self.Writes != writes {
		t.Errorf("writes = %d, want %d", n.Self.Writes, writes)
	}
	if n.Self.WriteBytes != writes*8 {
		t.Errorf("write bytes = %d, want %d", n.Self.WriteBytes, writes*8)
	}
	// Streaming 1 MiB of distinct lines: every access is a cold L1 miss.
	if n.Self.L1Misses != writes {
		t.Errorf("L1 misses = %d, want %d", n.Self.L1Misses, writes)
	}
	// LL (8 MiB) is big enough that all misses are cold there too.
	if n.Self.LLMisses != writes {
		t.Errorf("LL misses = %d, want %d", n.Self.LLMisses, writes)
	}
	if n.Self.CycleEstimate() <= n.Self.Instrs {
		t.Error("cycle estimate should exceed instruction count with misses")
	}
}

func TestBranchCosts(t *testing.T) {
	b := vm.NewBuilder()
	main := b.Func("main")
	main.Movi(vm.R1, 0)
	main.Movi(vm.R2, 1000)
	top := main.Here()
	main.Addi(vm.R1, vm.R1, 1)
	main.Blt(vm.R1, vm.R2, top)
	main.Halt()
	p := runTool(t, mustBuild(b))
	root := p.Root
	if root.Self.Branches != 1000 {
		t.Errorf("branches = %d, want 1000", root.Self.Branches)
	}
	if root.Self.Mispredict > 10 {
		t.Errorf("loop mispredicts = %d, want few", root.Self.Mispredict)
	}
}

func TestRecursionFoldsAtMaxDepth(t *testing.T) {
	b := vm.NewBuilder()
	main := b.Func("main")
	main.Movi(vm.R1, 500)
	main.Call("rec")
	main.Halt()
	rec := b.Func("rec")
	done := rec.NewLabel()
	rec.Movi(vm.R2, 0)
	rec.Beq(vm.R1, vm.R2, done)
	rec.Addi(vm.R1, vm.R1, -1)
	rec.Call("rec")
	rec.Bind(done)
	rec.Ret()
	p := mustBuild(b)
	tool := mustTool(Options{MaxDepth: 16})
	if _, err := dbi.Run(p, tool, nil); err != nil {
		t.Fatal(err)
	}
	prof := tool.Profile()
	// Context tree must stay bounded despite 500-deep recursion.
	if len(prof.Nodes) > 20 {
		t.Errorf("context nodes = %d, want <= 20 with folding", len(prof.Nodes))
	}
	// All instructions still attributed.
	if prof.Inclusive(prof.Root).Instrs != prof.TotalInstrs {
		t.Errorf("attribution lost under folding: %d != %d",
			prof.Inclusive(prof.Root).Instrs, prof.TotalInstrs)
	}
}

func TestSyscallBytes(t *testing.T) {
	b := vm.NewBuilder()
	buf := b.Reserve("buf", 64)
	main := b.Func("main")
	main.MoviU(vm.R1, buf)
	main.Movi(vm.R2, 10)
	main.Sys(vm.SysRead)
	main.MoviU(vm.R1, buf)
	main.Movi(vm.R2, 4)
	main.Sys(vm.SysWrite)
	main.Halt()
	p := mustBuild(b)
	tool := mustTool(Options{})
	if _, err := dbi.Run(p, tool, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	root := tool.Profile().Root
	if root.Self.SysOut != 10 {
		t.Errorf("sys out = %d, want 10", root.Self.SysOut)
	}
	if root.Self.SysIn != 4 {
		t.Errorf("sys in = %d, want 4", root.Self.SysIn)
	}
}

func TestCostsAdd(t *testing.T) {
	a := Costs{Instrs: 1, IntOps: 2, FPOps: 3, Reads: 4, Writes: 5,
		ReadBytes: 6, WriteBytes: 7, L1Misses: 8, LLMisses: 9,
		Branches: 10, Mispredict: 11, SysIn: 12, SysOut: 13}
	var c Costs
	c.Add(a)
	c.Add(a)
	if c.Instrs != 2 || c.SysOut != 26 || c.Ops() != 10 {
		t.Errorf("Add broken: %+v", c)
	}
}

func TestCycleEstimateFormula(t *testing.T) {
	c := Costs{Instrs: 100, Mispredict: 2, L1Misses: 3, LLMisses: 4}
	want := uint64(100 + 20 + 30 + 400)
	if got := c.CycleEstimate(); got != want {
		t.Errorf("cycle estimate = %d, want %d", got, want)
	}
}

func TestTotalOpsAndCycles(t *testing.T) {
	p := runTool(t, buildCallerCallee(t))
	var ops uint64
	for _, n := range p.Nodes {
		ops += n.Self.Ops()
	}
	// Arithmetic operations are a subset of the retired instructions.
	if ops == 0 || ops > p.TotalInstrs {
		t.Errorf("total ops %d, want in (0, %d]", ops, p.TotalInstrs)
	}
	if p.TotalCycleEstimate() < p.TotalInstrs {
		t.Errorf("cycle estimate below instruction count")
	}
}
