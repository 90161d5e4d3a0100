package vm

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

// runProg builds and runs a program, failing the test on any error.
func runProg(t *testing.T, b *Builder, obs Observer) (*Machine, RunStats) {
	t.Helper()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	m := NewMachine()
	stats, err := m.Run(p, obs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return m, stats
}

func TestIntArithmetic(t *testing.T) {
	b := NewBuilder()
	f := b.Func("main")
	f.Movi(R1, 40)
	f.Movi(R2, 2)
	f.Add(R3, R1, R2) // 42
	f.Sub(R4, R1, R2) // 38
	f.Mul(R5, R1, R2) // 80
	f.Div(R6, R1, R2) // 20
	f.Rem(R7, R1, R2) // 0
	f.Movi(R8, 7)
	f.Rem(R9, R1, R8)  // 40 % 7 = 5
	f.And(R10, R1, R2) // 0
	f.Or(R11, R1, R2)  // 42
	f.Xor(R12, R1, R1) // 0
	f.Shli(R13, R2, 4) // 32
	f.Shri(R14, R1, 2) // 10
	f.Halt()
	m, _ := runProg(t, b, nil)
	want := map[Reg]int64{R3: 42, R4: 38, R5: 80, R6: 20, R7: 0, R9: 5,
		R10: 0, R11: 42, R12: 0, R13: 32, R14: 10}
	for r, v := range want {
		if got := m.Regs[r]; got != v {
			t.Errorf("R%d = %d, want %d", r, got, v)
		}
	}
}

func TestSignedOps(t *testing.T) {
	b := NewBuilder()
	f := b.Func("main")
	f.Movi(R1, -16)
	f.Movi(R2, 2)
	f.Sar(R3, R1, R2)  // -4
	f.Shr(R4, R1, R2)  // logical: huge positive
	f.Slt(R5, R1, R2)  // 1: -16 < 2 signed
	f.Sltu(R6, R1, R2) // 0: unsigned -16 is huge
	f.Div(R7, R1, R2)  // -8
	f.Halt()
	m, _ := runProg(t, b, nil)
	if m.Regs[R3] != -4 {
		t.Errorf("sar: got %d, want -4", m.Regs[R3])
	}
	if got := uint64(m.Regs[R4]); got != uint64(0xFFFFFFFFFFFFFFF0)>>2 {
		t.Errorf("shr: got %#x", got)
	}
	if m.Regs[R5] != 1 || m.Regs[R6] != 0 {
		t.Errorf("slt/sltu: got %d, %d", m.Regs[R5], m.Regs[R6])
	}
	if m.Regs[R7] != -8 {
		t.Errorf("div: got %d, want -8", m.Regs[R7])
	}
}

func TestFloatArithmetic(t *testing.T) {
	b := NewBuilder()
	f := b.Func("main")
	f.FMovi(F1, 1.5)
	f.FMovi(F2, 2.0)
	f.FAdd(F3, F1, F2)
	f.FSub(F4, F1, F2)
	f.FMul(F5, F1, F2)
	f.FDiv(F6, F1, F2)
	f.FMovi(F7, 9.0)
	f.FSqrt(F8, F7)
	f.FNeg(F9, F1)
	f.FAbs(F10, F9)
	f.FMin(F11, F1, F2)
	f.FMax(F12, F1, F2)
	f.FCmp(R1, F1, F2)
	f.ItoF(F13, R1)
	f.FtoI(R2, F5)
	f.Halt()
	m, _ := runProg(t, b, nil)
	checks := map[FReg]float64{F3: 3.5, F4: -0.5, F5: 3.0, F6: 0.75,
		F8: 3.0, F9: -1.5, F10: 1.5, F11: 1.5, F12: 2.0, F13: -1.0}
	for r, v := range checks {
		if got := m.FRegs[r]; got != v {
			t.Errorf("F%d = %v, want %v", r, got, v)
		}
	}
	if m.Regs[R1] != -1 {
		t.Errorf("fcmp: got %d, want -1", m.Regs[R1])
	}
	if m.Regs[R2] != 3 {
		t.Errorf("ftoi: got %d, want 3", m.Regs[R2])
	}
}

func TestMemoryLoadStoreSizes(t *testing.T) {
	b := NewBuilder()
	base := b.Reserve("buf", 64)
	f := b.Func("main")
	f.MoviU(R1, base)
	f.Movi(R2, -2) // 0xFF..FE
	f.Store(R1, 0, R2, 1)
	f.Store(R1, 8, R2, 2)
	f.Store(R1, 16, R2, 4)
	f.Store(R1, 24, R2, 8)
	f.Load(R3, R1, 0, 1)   // 0xFE
	f.LoadS(R4, R1, 0, 1)  // -2
	f.Load(R5, R1, 8, 2)   // 0xFFFE
	f.LoadS(R6, R1, 8, 2)  // -2
	f.Load(R7, R1, 16, 4)  // 0xFFFFFFFE
	f.LoadS(R8, R1, 16, 4) // -2
	f.Load(R9, R1, 24, 8)  // -2 as raw
	f.Halt()
	m, _ := runProg(t, b, nil)
	if m.Regs[R3] != 0xFE || m.Regs[R4] != -2 {
		t.Errorf("byte: %d %d", m.Regs[R3], m.Regs[R4])
	}
	if m.Regs[R5] != 0xFFFE || m.Regs[R6] != -2 {
		t.Errorf("half: %d %d", m.Regs[R5], m.Regs[R6])
	}
	if m.Regs[R7] != 0xFFFFFFFE || m.Regs[R8] != -2 {
		t.Errorf("word: %d %d", m.Regs[R7], m.Regs[R8])
	}
	if m.Regs[R9] != -2 {
		t.Errorf("quad: %d", m.Regs[R9])
	}
}

func TestFloatMemory(t *testing.T) {
	b := NewBuilder()
	base := b.Reserve("buf", 16)
	f := b.Func("main")
	f.MoviU(R1, base)
	f.FMovi(F1, math.Pi)
	f.FStore(R1, 0, F1)
	f.FLoad(F2, R1, 0)
	f.Halt()
	m, _ := runProg(t, b, nil)
	if m.FRegs[F2] != math.Pi {
		t.Errorf("fload: got %v", m.FRegs[F2])
	}
}

func TestDataSegmentInstalled(t *testing.T) {
	b := NewBuilder()
	addr := b.Data("greeting", []byte{1, 2, 3, 4})
	f := b.Func("main")
	f.MoviU(R1, addr)
	f.Load(R2, R1, 0, 4)
	f.Halt()
	m, _ := runProg(t, b, nil)
	if got := uint64(m.Regs[R2]); got != 0x04030201 {
		t.Errorf("segment load: got %#x", got)
	}
}

func TestBranchLoop(t *testing.T) {
	// Sum 1..10 with a backward branch.
	b := NewBuilder()
	f := b.Func("main")
	f.Movi(R1, 0)  // sum
	f.Movi(R2, 1)  // i
	f.Movi(R3, 11) // bound
	top := f.Here()
	f.Add(R1, R1, R2)
	f.Addi(R2, R2, 1)
	f.Blt(R2, R3, top)
	f.Halt()
	m, _ := runProg(t, b, nil)
	if m.Regs[R1] != 55 {
		t.Errorf("loop sum: got %d, want 55", m.Regs[R1])
	}
}

func TestForwardBranch(t *testing.T) {
	b := NewBuilder()
	f := b.Func("main")
	done := f.NewLabel()
	f.Movi(R1, 1)
	f.Movi(R2, 1)
	f.Beq(R1, R2, done)
	f.Movi(R3, 99) // skipped
	f.Bind(done)
	f.Halt()
	m, _ := runProg(t, b, nil)
	if m.Regs[R3] != 0 {
		t.Errorf("forward branch not taken: R3=%d", m.Regs[R3])
	}
}

func TestCallSavesRegisters(t *testing.T) {
	b := NewBuilder()
	main := b.Func("main")
	main.Movi(R5, 123)
	main.Movi(R1, 7)
	main.Call("double")
	main.Halt()
	d := b.Func("double")
	d.Movi(R5, 0) // clobber a caller register
	d.Add(R0, R1, R1)
	d.Ret()
	m, _ := runProg(t, b, nil)
	if m.Regs[R0] != 14 {
		t.Errorf("return value: got %d, want 14", m.Regs[R0])
	}
	if m.Regs[R5] != 123 {
		t.Errorf("caller register clobbered: R5=%d, want 123", m.Regs[R5])
	}
}

func TestNestedCallsAndFPReturn(t *testing.T) {
	b := NewBuilder()
	main := b.Func("main")
	main.FMovi(F1, 2.0)
	main.Call("outer")
	main.Halt()
	outer := b.Func("outer")
	outer.Call("inner")
	outer.FAdd(F0, F0, F1) // F1 restored: 2.0; inner returned 10.0
	outer.Ret()
	inner := b.Func("inner")
	inner.FMovi(F1, 999.0) // clobber
	inner.FMovi(F0, 10.0)
	inner.Ret()
	m, _ := runProg(t, b, nil)
	if m.FRegs[F0] != 12.0 {
		t.Errorf("nested FP return: got %v, want 12", m.FRegs[F0])
	}
}

func TestRecursionFactorial(t *testing.T) {
	// fact(n): if n <= 1 return 1 else return n * fact(n-1)
	b := NewBuilder()
	main := b.Func("main")
	main.Movi(R1, 10)
	main.Call("fact")
	main.Halt()
	f := b.Func("fact")
	rec := f.NewLabel()
	f.Movi(R2, 1)
	f.Blt(R2, R1, rec) // if 1 < n recurse
	f.Movi(R0, 1)
	f.Ret()
	f.Bind(rec)
	f.Mov(R3, R1) // save n (callee-saved across call)
	f.Addi(R1, R1, -1)
	f.Call("fact")
	f.Mul(R0, R0, R3)
	f.Ret()
	m, _ := runProg(t, b, nil)
	if m.Regs[R0] != 3628800 {
		t.Errorf("fact(10): got %d, want 3628800", m.Regs[R0])
	}
}

func TestAlloc(t *testing.T) {
	b := NewBuilder()
	f := b.Func("main")
	f.Movi(R1, 100)
	f.Alloc(R2, R1)
	f.Alloc(R3, R1)
	f.Movi(R4, 7)
	f.Store(R2, 0, R4, 8)
	f.Store(R3, 0, R4, 8)
	f.Halt()
	m, _ := runProg(t, b, nil)
	a, c := uint64(m.Regs[R2]), uint64(m.Regs[R3])
	if a < HeapBase {
		t.Errorf("alloc below heap base: %#x", a)
	}
	if c < a+100 {
		t.Errorf("allocations overlap: %#x then %#x", a, c)
	}
	if m.HeapUsed() < 200 {
		t.Errorf("heap used = %d, want >= 200", m.HeapUsed())
	}
}

func TestSysReadWrite(t *testing.T) {
	b := NewBuilder()
	buf := b.Reserve("buf", 64)
	f := b.Func("main")
	f.MoviU(R1, buf)
	f.Movi(R2, 5)
	f.Sys(SysRead)
	f.Mov(R10, R0) // bytes read
	f.MoviU(R1, buf)
	f.Movi(R2, 3)
	f.Sys(SysWrite)
	f.Mov(R11, R0)
	// Second read drains the rest.
	f.MoviU(R1, buf)
	f.Movi(R2, 100)
	f.Sys(SysRead)
	f.Mov(R12, R0)
	f.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine()
	m.SetInput([]byte("hello!!"))
	stats, err := m.Run(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Regs[R10] != 5 || m.Regs[R11] != 3 || m.Regs[R12] != 2 {
		t.Errorf("read/write/read = %d/%d/%d, want 5/3/2",
			m.Regs[R10], m.Regs[R11], m.Regs[R12])
	}
	if stats.OutputBytes != 3 {
		t.Errorf("output bytes = %d, want 3", stats.OutputBytes)
	}
}

func TestSysRandDeterministic(t *testing.T) {
	build := func() *Program {
		b := NewBuilder()
		f := b.Func("main")
		f.Sys(SysRand)
		f.Mov(R1, R0)
		f.Sys(SysRand)
		f.Halt()
		return mustBuild(b)
	}
	m1, m2 := NewMachine(), NewMachine()
	if _, err := m1.Run(build(), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Run(build(), nil); err != nil {
		t.Fatal(err)
	}
	if m1.Regs[R0] != m2.Regs[R0] || m1.Regs[R1] != m2.Regs[R1] {
		t.Error("SysRand not deterministic across machines")
	}
	if m1.Regs[R0] == m1.Regs[R1] {
		t.Error("SysRand repeated a value immediately")
	}
}

func TestSysTime(t *testing.T) {
	b := NewBuilder()
	f := b.Func("main")
	f.Sys(SysTime)
	f.Mov(R1, R0)
	f.Nop()
	f.Nop()
	f.Sys(SysTime)
	f.Halt()
	m, _ := runProg(t, b, nil)
	if d := m.Regs[R0] - m.Regs[R1]; d != 4 {
		t.Errorf("time delta = %d, want 4 (mov, nop, nop, sys)", d)
	}
}

func TestDivideByZeroFaults(t *testing.T) {
	b := NewBuilder()
	f := b.Func("main")
	f.Movi(R1, 1)
	f.Movi(R2, 0)
	f.Div(R3, R1, R2)
	f.Halt()
	p := mustBuild(b)
	if _, err := NewMachine().Run(p, nil); err == nil {
		t.Fatal("expected divide-by-zero fault")
	}
}

func TestInstrBudgetFaults(t *testing.T) {
	b := NewBuilder()
	f := b.Func("main")
	// An always-taken conditional branch: spins forever at run time but
	// keeps a statically reachable halt, so Verify accepts the program.
	top := f.Here()
	f.Beq(R1, R1, top)
	f.Halt()
	p := mustBuild(b)
	m := NewMachine()
	m.MaxInstrs = 1000
	if _, err := m.Run(p, nil); err == nil {
		t.Fatal("expected instruction budget fault")
	}
}

func TestCallDepthFaults(t *testing.T) {
	b := NewBuilder()
	main := b.Func("main")
	main.Call("loop")
	main.Halt()
	l := b.Func("loop")
	l.Call("loop")
	l.Ret()
	p := mustBuild(b)
	m := NewMachine()
	m.MaxCallDepth = 64
	if _, err := m.Run(p, nil); err == nil {
		t.Fatal("expected call depth fault")
	}
}

func TestReturnFromEntryTerminates(t *testing.T) {
	b := NewBuilder()
	f := b.Func("main")
	f.Movi(R1, 5)
	f.Ret()
	m, _ := runProg(t, b, nil)
	if m.Regs[R1] != 5 {
		t.Errorf("R1 = %d", m.Regs[R1])
	}
}

func TestValidationRejectsBadPrograms(t *testing.T) {
	cases := []struct {
		name string
		prog *Program
	}{
		{"no functions", &Program{}},
		{"bad entry", &Program{Funcs: []*Function{{Name: "a", Code: []Instr{{Op: OpHalt}}}}, Entry: 3}},
		{"empty function", &Program{Funcs: []*Function{{Name: "a"}}, Entry: 0}},
		{"duplicate names", &Program{Funcs: []*Function{
			{Name: "a", Code: []Instr{{Op: OpHalt}}},
			{Name: "a", Code: []Instr{{Op: OpHalt}}}}, Entry: 0}},
		{"bad branch target", &Program{Funcs: []*Function{
			{Name: "a", Code: []Instr{{Op: OpBr, Target: 9}}}}, Entry: 0}},
		{"bad call target", &Program{Funcs: []*Function{
			{Name: "a", Code: []Instr{{Op: OpCall, Target: 4}}}}, Entry: 0}},
		{"bad access size", &Program{Funcs: []*Function{
			{Name: "a", Code: []Instr{{Op: OpLoad, Size: 3}, {Op: OpHalt}}}}, Entry: 0}},
		{"bad syscall", &Program{Funcs: []*Function{
			{Name: "a", Code: []Instr{{Op: OpSys, Imm: 99}, {Op: OpHalt}}}}, Entry: 0}},
		{"overlapping segments", &Program{
			Funcs: []*Function{{Name: "a", Code: []Instr{{Op: OpHalt}}}},
			Segments: []Segment{
				{Name: "x", Addr: 100, Data: make([]byte, 64)},
				{Name: "y", Addr: 120, Data: make([]byte, 8)},
			}, Entry: 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.prog.Validate(); err == nil {
				t.Errorf("Validate accepted %s", tc.name)
			}
		})
	}
}

func TestBuilderErrors(t *testing.T) {
	t.Run("unbound label", func(t *testing.T) {
		b := NewBuilder()
		f := b.Func("main")
		l := f.NewLabel()
		f.Br(l)
		f.Halt()
		if _, err := b.Build(); err == nil {
			t.Error("Build accepted unbound label")
		}
	})
	t.Run("undefined callee", func(t *testing.T) {
		b := NewBuilder()
		f := b.Func("main")
		f.Call("nope")
		f.Halt()
		if _, err := b.Build(); err == nil {
			t.Error("Build accepted undefined callee")
		}
	})
	t.Run("missing entry", func(t *testing.T) {
		b := NewBuilder()
		f := b.Func("helper")
		f.Ret()
		if _, err := b.Build(); err == nil {
			t.Error("Build accepted missing entry")
		}
	})
	t.Run("double bind", func(t *testing.T) {
		b := NewBuilder()
		f := b.Func("main")
		l := f.NewLabel()
		f.Bind(l)
		f.Bind(l)
		f.Halt()
		if _, err := b.Build(); err == nil {
			t.Error("Build accepted double-bound label")
		}
	})
}

// TestMemoryRoundTrip property: Store then Load returns the value truncated
// to the access size, at arbitrary addresses (including page straddles).
func TestMemoryRoundTrip(t *testing.T) {
	mem := NewMemory()
	prop := func(addr uint64, v uint64, szSel uint8) bool {
		sizes := []uint8{1, 2, 4, 8}
		size := sizes[szSel%4]
		addr %= 1 << 30
		mem.Store(addr, size, v)
		got := mem.Load(addr, size)
		var want uint64
		switch size {
		case 1:
			want = v & 0xFF
		case 2:
			want = v & 0xFFFF
		case 4:
			want = v & 0xFFFFFFFF
		default:
			want = v
		}
		return got == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestMemoryPageStraddle exercises accesses that cross a page boundary.
func TestMemoryPageStraddle(t *testing.T) {
	mem := NewMemory()
	addr := uint64(pageSize - 3)
	mem.Store(addr, 8, 0x1122334455667788)
	if got := mem.Load(addr, 8); got != 0x1122334455667788 {
		t.Errorf("straddle load: got %#x", got)
	}
	buf := make([]byte, 8)
	mem.ReadBytes(addr, buf)
	if buf[0] != 0x88 || buf[7] != 0x11 {
		t.Errorf("ReadBytes straddle: % x", buf)
	}
}

// TestMemoryBulkRoundTrip property: WriteBytes then ReadBytes round-trips.
func TestMemoryBulkRoundTrip(t *testing.T) {
	mem := NewMemory()
	prop := func(addr uint64, data []byte) bool {
		addr %= 1 << 30
		mem.WriteBytes(addr, data)
		got := make([]byte, len(data))
		mem.ReadBytes(addr, got)
		for i := range data {
			if got[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestInstrCountMatchesStats(t *testing.T) {
	b := NewBuilder()
	f := b.Func("main")
	f.Movi(R1, 1)
	f.Movi(R2, 2)
	f.Add(R3, R1, R2)
	f.Halt()
	m, stats := runProg(t, b, nil)
	if stats.Instrs != 4 {
		t.Errorf("retired = %d, want 4", stats.Instrs)
	}
	if m.InstrCount() != stats.Instrs {
		t.Errorf("InstrCount mismatch: %d vs %d", m.InstrCount(), stats.Instrs)
	}
}

// observerRecorder records the primitive stream for verification, and the
// machine's operation tallies at each call boundary.
type observerRecorder struct {
	BaseObserver
	m              *Machine
	enters, leaves []int
	tallies        [][2]uint64 // OpCounts at each FnEnter and FnLeave
	reads, writes  []uint64
	branches       []bool
	syscalls       []Sys
}

func (o *observerRecorder) ProgramStart(_ *Program, m *Machine) { o.m = m }
func (o *observerRecorder) FnEnter(fn int) {
	o.enters = append(o.enters, fn)
	o.tally()
}
func (o *observerRecorder) FnLeave(fn int) {
	o.leaves = append(o.leaves, fn)
	o.tally()
}
func (o *observerRecorder) tally() {
	intOps, fpOps := o.m.OpCounts()
	o.tallies = append(o.tallies, [2]uint64{intOps, fpOps})
}
func (o *observerRecorder) Branch(site uint64, tk bool) { o.branches = append(o.branches, tk) }
func (o *observerRecorder) MemRead(a uint64, s uint8)   { o.reads = append(o.reads, a) }
func (o *observerRecorder) MemWrite(a uint64, s uint8)  { o.writes = append(o.writes, a) }
func (o *observerRecorder) Syscall(s Sys, _, _, _, _ uint64) {
	o.syscalls = append(o.syscalls, s)
}

func TestObserverStream(t *testing.T) {
	b := NewBuilder()
	buf := b.Reserve("buf", 16)
	main := b.Func("main")
	main.MoviU(R1, buf)
	main.Movi(R2, 42)
	main.Store(R1, 0, R2, 4)
	main.Call("reader")
	main.ItoF(F1, R2) // a conversion counts as an integer operation
	main.Halt()
	rd := b.Func("reader")
	rd.Load(R3, R1, 0, 4)
	rd.FMovi(F2, 0.5)
	rd.FAdd(F2, F2, F2)
	rd.Ret()
	p := mustBuild(b)

	rec := &observerRecorder{}
	m := NewMachine()
	if _, err := m.Run(p, rec); err != nil {
		t.Fatal(err)
	}
	mainIdx, _ := p.FuncIndex("main")
	readerIdx, _ := p.FuncIndex("reader")
	wantEnters := []int{mainIdx, readerIdx}
	if len(rec.enters) != 2 || rec.enters[0] != wantEnters[0] || rec.enters[1] != wantEnters[1] {
		t.Errorf("enters = %v, want %v", rec.enters, wantEnters)
	}
	wantLeaves := []int{readerIdx, mainIdx}
	if len(rec.leaves) != 2 || rec.leaves[0] != wantLeaves[0] || rec.leaves[1] != wantLeaves[1] {
		t.Errorf("leaves = %v, want %v", rec.leaves, wantLeaves)
	}
	if len(rec.writes) != 1 || rec.writes[0] != buf {
		t.Errorf("writes = %v, want [%d]", rec.writes, buf)
	}
	if len(rec.reads) != 1 || rec.reads[0] != buf {
		t.Errorf("reads = %v, want [%d]", rec.reads, buf)
	}
	// {int, fp} at enter main, enter reader, leave reader, leave main:
	// the movi pair runs before the call, the fp pair inside reader and
	// the conversion after it returns; store/load/call/ret/halt are not
	// operations.
	want := [][2]uint64{{0, 0}, {2, 0}, {2, 2}, {3, 2}}
	if !slices.Equal(rec.tallies, want) {
		t.Errorf("op tallies at boundaries = %v, want %v", rec.tallies, want)
	}
	if i, f := m.OpCounts(); i != 3 || f != 2 {
		t.Errorf("OpCounts = %d, %d after the run, want 3, 2", i, f)
	}
	// A native run dispatches nothing, tallies included.
	native := NewMachine()
	if _, err := native.Run(p, nil); err != nil {
		t.Fatal(err)
	}
	if i, f := native.OpCounts(); i != 0 || f != 0 {
		t.Errorf("native OpCounts = %d, %d, want 0, 0", i, f)
	}
}

func TestObserverBranchStream(t *testing.T) {
	b := NewBuilder()
	f := b.Func("main")
	f.Movi(R1, 0)
	f.Movi(R2, 3)
	top := f.Here()
	f.Addi(R1, R1, 1)
	f.Blt(R1, R2, top)
	f.Halt()
	rec := &observerRecorder{}
	p := mustBuild(b)
	if _, err := NewMachine().Run(p, rec); err != nil {
		t.Fatal(err)
	}
	// Branch executes 3 times: taken, taken, not-taken.
	want := []bool{true, true, false}
	if len(rec.branches) != len(want) {
		t.Fatalf("branches = %v, want %v", rec.branches, want)
	}
	for i := range want {
		if rec.branches[i] != want[i] {
			t.Errorf("branch %d = %v, want %v", i, rec.branches[i], want[i])
		}
	}
}

// TestRegisterIsolationProperty: a call to a function that clobbers every
// register must not disturb any caller register except R0/F0.
func TestRegisterIsolationProperty(t *testing.T) {
	prop := func(vals [8]int64) bool {
		b := NewBuilder()
		main := b.Func("main")
		for i, v := range vals {
			main.Movi(Reg(R8+Reg(i)), v)
		}
		main.Call("clobber")
		main.Halt()
		cl := b.Func("clobber")
		for r := Reg(0); r < NumRegs; r++ {
			cl.Movi(r, -7777)
		}
		cl.Ret()
		m := NewMachine()
		if _, err := m.Run(mustBuild(b), nil); err != nil {
			return false
		}
		for i, v := range vals {
			if m.Regs[R8+Reg(i)] != v {
				return false
			}
		}
		return m.Regs[R0] == -7777 // return register propagates
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
