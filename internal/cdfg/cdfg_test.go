package cdfg

import (
	"math"
	"strings"
	"testing"

	"sigil/internal/core"
	"sigil/internal/vm"
)

// pipelineProgram builds: main → producer (writes 128B) → consumer (reads
// them, then burns many ops). The consumer sub-tree has 128 unique external
// input bytes and heavy compute, so it should be a strong candidate.
func pipelineProgram(t *testing.T, consumerOps int64) *vm.Program {
	t.Helper()
	b := vm.NewBuilder()
	buf := b.Reserve("buf", 128)
	main := b.Func("main")
	main.MoviU(vm.R1, buf)
	main.Call("producer")
	main.Call("consumer")
	main.Halt()

	p := b.Func("producer")
	p.Mov(vm.R4, vm.R1)
	p.Movi(vm.R5, 0)
	p.Movi(vm.R6, 16)
	top := p.Here()
	p.Store(vm.R4, 0, vm.R5, 8)
	p.Addi(vm.R4, vm.R4, 8)
	p.Addi(vm.R5, vm.R5, 1)
	p.Blt(vm.R5, vm.R6, top)
	p.Ret()

	c := b.Func("consumer")
	c.Mov(vm.R4, vm.R1)
	c.Movi(vm.R5, 0)
	c.Movi(vm.R6, 16)
	rd := c.Here()
	c.Load(vm.R7, vm.R4, 0, 8)
	c.Addi(vm.R4, vm.R4, 8)
	c.Addi(vm.R5, vm.R5, 1)
	c.Blt(vm.R5, vm.R6, rd)
	c.Movi(vm.R8, 0)
	c.Movi(vm.R9, consumerOps)
	burn := c.Here()
	c.Addi(vm.R8, vm.R8, 1)
	c.Blt(vm.R8, vm.R9, burn)
	c.Ret()
	return mustBuild(b)
}

func buildGraph(t *testing.T, p *vm.Program, cfg Config) *Graph {
	t.Helper()
	r, err := core.Run(p, core.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func nodeByName(g *Graph, name string) *Node {
	for _, n := range g.Nodes {
		if n.Name == name {
			return n
		}
	}
	return nil
}

func TestExternalCommunication(t *testing.T) {
	g := buildGraph(t, pipelineProgram(t, 10000), Config{})
	cons := nodeByName(g, "consumer")
	if cons == nil {
		t.Fatal("consumer node missing")
	}
	if cons.ExtIn != 128 {
		t.Errorf("consumer ExtIn = %d, want 128", cons.ExtIn)
	}
	if cons.ExtOut != 0 {
		t.Errorf("consumer ExtOut = %d, want 0", cons.ExtOut)
	}
	prod := nodeByName(g, "producer")
	if prod.ExtOut != 128 {
		t.Errorf("producer ExtOut = %d, want 128", prod.ExtOut)
	}
	// The root's sub-tree contains both endpoints of the producer→consumer
	// edge, so that edge is internal to main.
	root := g.Root
	if root.ExtIn != g.Result.StartupBytes+g.Result.KernelOutBytes {
		t.Errorf("root ExtIn = %d, want only startup/kernel (%d)",
			root.ExtIn, g.Result.StartupBytes)
	}
}

func TestInclusiveCosts(t *testing.T) {
	g := buildGraph(t, pipelineProgram(t, 1000), Config{})
	root := g.Root
	var selfSum uint64
	for _, n := range g.Nodes {
		selfSum += n.SelfCycles
	}
	if root.InclCycles != selfSum {
		t.Errorf("root inclusive %d != sum of selves %d", root.InclCycles, selfSum)
	}
	cons := nodeByName(g, "consumer")
	if cons.InclCycles != cons.SelfCycles {
		t.Errorf("leaf inclusive != self")
	}
	if cons.InclCycles >= root.InclCycles {
		t.Errorf("child inclusive >= root inclusive")
	}
}

func TestBreakevenFormula(t *testing.T) {
	// tsw=1000 cycles, 800 bytes at 8 B/cycle → tcomm=100 → S=1000/900.
	if got := breakeven(1000, 800, 8); math.Abs(got-1000.0/900.0) > 1e-12 {
		t.Errorf("breakeven = %v", got)
	}
	// Communication dominating: infinite.
	if got := breakeven(100, 1000, 8); !math.IsInf(got, 1) {
		t.Errorf("dominated breakeven = %v, want +Inf", got)
	}
	// Zero cycles: infinite.
	if got := breakeven(0, 0, 8); !math.IsInf(got, 1) {
		t.Errorf("zero-cycle breakeven = %v, want +Inf", got)
	}
	// No communication at all: exactly 1 (free offload).
	if got := breakeven(500, 0, 8); got != 1 {
		t.Errorf("comm-free breakeven = %v, want 1", got)
	}
}

func TestHeavyComputeLowBreakeven(t *testing.T) {
	g := buildGraph(t, pipelineProgram(t, 100000), Config{})
	cons := nodeByName(g, "consumer")
	if cons.Breakeven > 1.01 {
		t.Errorf("heavy consumer breakeven = %v, want ≈ 1", cons.Breakeven)
	}
	gSmall := buildGraph(t, pipelineProgram(t, 10), Config{})
	consSmall := nodeByName(gSmall, "consumer")
	if consSmall.Breakeven <= cons.Breakeven {
		t.Errorf("tiny consumer breakeven %v should exceed heavy %v",
			consSmall.Breakeven, cons.Breakeven)
	}
}

func TestTrimSelectsCandidates(t *testing.T) {
	g := buildGraph(t, pipelineProgram(t, 50000), Config{})
	tr := g.Trim()
	if len(tr.Candidates) == 0 {
		t.Fatal("no candidates")
	}
	for _, c := range tr.Candidates {
		if c.Node == g.Root {
			t.Error("root selected as candidate")
		}
	}
	// Candidates sorted ascending by breakeven.
	for i := 1; i < len(tr.Candidates); i++ {
		if tr.Candidates[i].Breakeven < tr.Candidates[i-1].Breakeven {
			t.Error("candidates not sorted")
		}
	}
	// The dominant consumer must be among them.
	found := false
	for _, c := range tr.Candidates {
		if c.Name == "consumer" {
			found = true
		}
	}
	if !found {
		t.Errorf("consumer not selected; candidates: %v", names(tr.Candidates))
	}
	if cov := tr.Coverage(); cov <= 0 || cov > 1 {
		t.Errorf("coverage = %v", cov)
	}
}

func names(cs []Candidate) []string {
	var out []string
	for _, c := range cs {
		out = append(out, c.Name)
	}
	return out
}

func TestTrimMergesSubtrees(t *testing.T) {
	// helper is called beneath worker; merging worker should absorb the
	// worker→helper communication (Fig 2's box semantics).
	b := vm.NewBuilder()
	buf := b.Reserve("buf", 64)
	scratch := b.Reserve("scratch", 64)
	main := b.Func("main")
	main.MoviU(vm.R1, buf)
	main.MoviU(vm.R2, scratch)
	main.Movi(vm.R3, 5)
	main.Store(vm.R1, 0, vm.R3, 8)
	main.Call("worker")
	main.Halt()
	w := b.Func("worker")
	w.Load(vm.R4, vm.R1, 0, 8) // external input: 8 bytes from main
	w.Store(vm.R2, 0, vm.R4, 8)
	w.Call("helper") // helper reads scratch: internal when merged
	w.Movi(vm.R8, 0)
	w.Movi(vm.R9, 20000)
	top := w.Here()
	w.Addi(vm.R8, vm.R8, 1)
	w.Blt(vm.R8, vm.R9, top)
	w.Ret()
	h := b.Func("helper")
	h.Load(vm.R5, vm.R2, 0, 8)
	h.Movi(vm.R8, 0)
	h.Movi(vm.R9, 5000)
	top2 := h.Here()
	h.Addi(vm.R8, vm.R8, 1)
	h.Blt(vm.R8, vm.R9, top2)
	h.Ret()

	g := buildGraph(t, mustBuild(b), Config{})
	worker := nodeByName(g, "worker")
	// Worker's sub-tree external input excludes the scratch bytes helper
	// read (worker produced them).
	if worker.ExtIn != 8 {
		t.Errorf("worker ExtIn = %d, want 8 (scratch absorbed)", worker.ExtIn)
	}
	tr := g.Trim()
	// Worker (breakeven ≈ 1, covers helper too) should be the merged
	// candidate; helper must not appear separately.
	var sawWorker, sawHelper bool
	for _, c := range tr.Candidates {
		switch c.Name {
		case "worker":
			sawWorker = true
		case "helper":
			sawHelper = true
		}
	}
	if !sawWorker || sawHelper {
		t.Errorf("candidates = %v, want worker merged (no separate helper)",
			names(tr.Candidates))
	}
	if !tr.Merged[worker.Ctx] {
		t.Error("worker not marked merged")
	}
	helper := nodeByName(g, "helper")
	if !tr.Merged[helper.Ctx] {
		t.Error("helper not marked merged into worker")
	}
}

func TestTrimDescendsWhenChildBetter(t *testing.T) {
	// parent does trivial work but moves lots of data; child is compute
	// heavy with little data: the heuristic must descend past parent.
	b := vm.NewBuilder()
	big := b.Reserve("big", 4096)
	main := b.Func("main")
	main.MoviU(vm.R1, big)
	main.Movi(vm.R2, 0)
	main.Movi(vm.R3, 512)
	wr := main.Here()
	main.Store(vm.R1, 0, vm.R2, 8)
	main.Addi(vm.R1, vm.R1, 8)
	main.Addi(vm.R2, vm.R2, 1)
	main.Blt(vm.R2, vm.R3, wr)
	main.MoviU(vm.R1, big)
	main.Call("parent")
	main.Halt()
	pa := b.Func("parent")
	pa.Mov(vm.R4, vm.R1)
	pa.Movi(vm.R5, 0)
	pa.Movi(vm.R6, 512)
	top := pa.Here()
	pa.Load(vm.R7, vm.R4, 0, 8) // reads all 4 KiB from main
	pa.Addi(vm.R4, vm.R4, 8)
	pa.Addi(vm.R5, vm.R5, 1)
	pa.Blt(vm.R5, vm.R6, top)
	pa.Call("kernelfn")
	pa.Ret()
	k := b.Func("kernelfn")
	k.Load(vm.R10, vm.R1, 0, 8) // small real input (keeps it a candidate)
	k.Movi(vm.R8, 0)
	k.Movi(vm.R9, 100000)
	burn := k.Here()
	k.Addi(vm.R8, vm.R8, 1)
	k.Blt(vm.R8, vm.R9, burn)
	k.Ret()

	g := buildGraph(t, mustBuild(b), Config{BytesPerCycle: 0.05})
	parent := nodeByName(g, "parent")
	child := nodeByName(g, "kernelfn")
	if child.Breakeven >= parent.Breakeven {
		t.Fatalf("test premise broken: child %v >= parent %v",
			child.Breakeven, parent.Breakeven)
	}
	tr := g.Trim()
	var sawParent, sawChild bool
	for _, c := range tr.Candidates {
		switch c.Name {
		case "parent":
			sawParent = true
		case "kernelfn":
			sawChild = true
		}
	}
	if sawParent || !sawChild {
		t.Errorf("candidates = %v, want descent to kernelfn", names(tr.Candidates))
	}
}

func TestMaxBreakevenFilter(t *testing.T) {
	g := buildGraph(t, pipelineProgram(t, 50000), Config{MaxBreakeven: 1.0000001})
	tr := g.Trim()
	for _, c := range tr.Candidates {
		if c.Breakeven > 1.0000001 {
			t.Errorf("candidate %s breakeven %v above limit", c.Name, c.Breakeven)
		}
	}
}

func TestMinCyclesFloor(t *testing.T) {
	g := buildGraph(t, pipelineProgram(t, 50000), Config{MinCycles: 1 << 40})
	tr := g.Trim()
	if len(tr.Candidates) != 0 {
		t.Errorf("candidates above impossible floor: %v", names(tr.Candidates))
	}
}

func TestTopBottomSelection(t *testing.T) {
	g := buildGraph(t, pipelineProgram(t, 50000), Config{})
	tr := g.Trim()
	top := tr.TopByBreakeven(1)
	if len(top) != 1 || top[0].Breakeven != tr.Candidates[0].Breakeven {
		t.Error("TopByBreakeven wrong")
	}
	bottom := tr.BottomByBreakeven(len(tr.Candidates) + 5)
	if len(bottom) != len(tr.Candidates) {
		t.Error("BottomByBreakeven overflow not clamped")
	}
	if len(bottom) > 1 && bottom[0].Breakeven < bottom[len(bottom)-1].Breakeven {
		t.Error("BottomByBreakeven not worst-first")
	}
}

func TestSubtreeMembership(t *testing.T) {
	g := buildGraph(t, pipelineProgram(t, 100), Config{})
	root := g.Root
	cons := nodeByName(g, "consumer")
	if !root.InSubtree(cons) {
		t.Error("consumer not in root subtree")
	}
	if cons.InSubtree(root) {
		t.Error("root in consumer subtree")
	}
	if !cons.InSubtree(cons) {
		t.Error("node not in own subtree")
	}
}

func TestBuildValidation(t *testing.T) {
	r, err := core.Run(pipelineProgram(t, 10), core.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(r, Config{BytesPerCycle: -1}); err == nil {
		t.Error("negative bandwidth accepted")
	}
	if _, err := Build(&core.Result{}, Config{}); err == nil {
		t.Error("empty result accepted")
	}
}

func TestWriteDOT(t *testing.T) {
	g := buildGraph(t, pipelineProgram(t, 100), Config{})
	tr := g.Trim()
	var sb strings.Builder
	if err := g.WriteDOT(&sb, tr); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"digraph", "consumer", "style=dashed", "fillcolor"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
}

// TestBandwidthSweep sweeps cdfg.Config.BytesPerCycle: a faster bus can
// only lower a merged sub-tree's breakeven speedup, toward 1.
func TestBandwidthSweep(t *testing.T) {
	r, err := core.Run(pipelineProgram(t, 50000), core.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var pts []float64
	for _, bw := range []float64{0.5, 1, 2, 4, 8, 16} {
		g, err := Build(r, Config{BytesPerCycle: bw})
		if err != nil {
			t.Fatal(err)
		}
		pts = append(pts, nodeByName(g, "consumer").Breakeven)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i] > pts[i-1] {
			t.Errorf("breakeven rose with bandwidth: %v", pts)
		}
	}
	if pts[len(pts)-1] < 1 {
		t.Errorf("breakeven below 1: %v", pts)
	}
	if _, err := Build(r, Config{BytesPerCycle: -1}); err == nil {
		t.Error("negative bandwidth accepted")
	}
}
