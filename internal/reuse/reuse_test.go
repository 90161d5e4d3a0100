package reuse

import (
	"math"
	"testing"

	"sigil/internal/core"
	"sigil/internal/vm"
)

// mixedReuse builds a program with three behaviours: a streaming function
// (zero reuse), a moderate re-user (reads each byte 4x), and a hot re-user
// (reads one word 50x).
func mixedReuse(t *testing.T) *vm.Program {
	t.Helper()
	b := vm.NewBuilder()
	buf := b.Reserve("buf", 256)
	main := b.Func("main")
	main.MoviU(vm.R1, buf)
	main.Movi(vm.R2, 32) // words
	main.Call("fill")
	main.Call("stream")
	main.Call("moderate")
	main.Call("hotspot")
	main.Halt()

	fill := b.Func("fill")
	fill.Mov(vm.R4, vm.R1)
	fill.Movi(vm.R5, 0)
	top := fill.Here()
	fill.Store(vm.R4, 0, vm.R5, 8)
	fill.Addi(vm.R4, vm.R4, 8)
	fill.Addi(vm.R5, vm.R5, 1)
	fill.Blt(vm.R5, vm.R2, top)
	fill.Ret()

	stream := b.Func("stream")
	stream.Mov(vm.R4, vm.R1)
	stream.Movi(vm.R5, 0)
	st := stream.Here()
	stream.Load(vm.R6, vm.R4, 0, 8)
	stream.Addi(vm.R4, vm.R4, 8)
	stream.Addi(vm.R5, vm.R5, 1)
	stream.Blt(vm.R5, vm.R2, st)
	stream.Ret()

	mod := b.Func("moderate")
	mod.Movi(vm.R7, 0)
	mod.Movi(vm.R8, 4)
	pass := mod.Here()
	mod.Mov(vm.R4, vm.R1)
	mod.Movi(vm.R5, 0)
	inner := mod.Here()
	mod.Load(vm.R6, vm.R4, 0, 8)
	mod.Addi(vm.R4, vm.R4, 8)
	mod.Addi(vm.R5, vm.R5, 1)
	mod.Blt(vm.R5, vm.R2, inner)
	mod.Addi(vm.R7, vm.R7, 1)
	mod.Blt(vm.R7, vm.R8, pass)
	mod.Ret()

	hot := b.Func("hotspot")
	hot.Movi(vm.R5, 0)
	hot.Movi(vm.R6, 50)
	ht := hot.Here()
	hot.Load(vm.R7, vm.R1, 0, 8)
	hot.Addi(vm.R5, vm.R5, 1)
	hot.Blt(vm.R5, vm.R6, ht)
	hot.Ret()
	return mustBuild(b)
}

func runReuse(t *testing.T, opts core.Options) *core.Result {
	t.Helper()
	r, err := core.Run(mixedReuse(t), opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestBreakdownBucketsSumToOne(t *testing.T) {
	r := runReuse(t, core.Options{TrackReuse: true})
	b, err := Analyze(r)
	if err != nil {
		t.Fatal(err)
	}
	if b.Episodes == 0 {
		t.Fatal("no episodes")
	}
	if s := b.Zero + b.Low + b.High; math.Abs(s-1) > 1e-9 {
		t.Errorf("buckets sum to %v", s)
	}
	// stream contributes 256 zero-reuse episodes; hotspot one high one.
	if b.Zero == 0 || b.High == 0 || b.Low == 0 {
		t.Errorf("expected all buckets populated: %+v", b)
	}
}

func TestAnalyzeRequiresReuseMode(t *testing.T) {
	r := runReuse(t, core.Options{})
	if _, err := Analyze(r); err == nil {
		t.Error("Analyze accepted a non-reuse profile")
	}
	if _, err := TopFunctions(r, 3); err == nil {
		t.Error("TopFunctions accepted a non-reuse profile")
	}
	if _, err := LifetimeHistogram(r, "stream"); err == nil {
		t.Error("LifetimeHistogram accepted a non-reuse profile")
	}
}

func TestTopFunctionsOrdering(t *testing.T) {
	r := runReuse(t, core.Options{TrackReuse: true})
	top, err := TopFunctions(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(top); i++ {
		if top[i].ReusedBytes > top[i-1].ReusedBytes {
			t.Error("not sorted by reused bytes")
		}
	}
	// moderate re-reads 256 bytes 3 extra passes: most reused bytes.
	if top[0].Name != "moderate" {
		t.Errorf("top = %q, want moderate", top[0].Name)
	}
	limited, _ := TopFunctions(r, 2)
	if len(limited) != 2 {
		t.Errorf("k limit ignored: %d", len(limited))
	}
}

func TestLifetimeHistogramLookup(t *testing.T) {
	r := runReuse(t, core.Options{TrackReuse: true})
	hist, err := LifetimeHistogram(r, "moderate")
	if err != nil {
		t.Fatal(err)
	}
	sh := Shape(hist)
	if sh.Episodes == 0 || sh.PeakBin < 0 {
		t.Errorf("degenerate shape: %+v", sh)
	}
	if _, err := LifetimeHistogram(r, "nosuchfn"); err == nil {
		t.Error("unknown function accepted")
	}
}

func TestShapeDistinguishesTails(t *testing.T) {
	short := Shape([]uint64{100, 5})
	long := Shape([]uint64{10, 0, 0, 0, 50, 0, 0, 3})
	if short.TailBin >= long.TailBin {
		t.Error("tail comparison broken")
	}
	if long.PeakBin != 4 {
		t.Errorf("peak bin = %d, want 4", long.PeakBin)
	}
	empty := Shape(nil)
	if empty.PeakBin != -1 || empty.TailBin != -1 || empty.Episodes != 0 {
		t.Errorf("empty shape: %+v", empty)
	}
}

func TestLineBreakdownRequiresLineMode(t *testing.T) {
	r := runReuse(t, core.Options{TrackReuse: true})
	if _, err := LineBreakdown(r); err == nil {
		t.Error("LineBreakdown accepted byte-mode profile")
	}
	r2, err := core.Run(mixedReuse(t), core.Options{LineGranularity: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	lr, err := LineBreakdown(r2)
	if err != nil {
		t.Fatal(err)
	}
	if lr.TotalLines == 0 {
		t.Error("no lines recorded")
	}
}
