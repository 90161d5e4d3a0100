package vm

import (
	"strings"
	"testing"
)

func TestDisassembleRoundTrip(t *testing.T) {
	// Assemble a program exercising most opcodes, disassemble it,
	// re-assemble the listing, and check the programs and machines agree.
	src := `
.data tbl 01 02 03 04 05 06 07 08
.reserve buf 64
func main {
    movi  r1, tbl
    load8 r2, r1, 0
    movi  r3, buf
    store8 r3, 0, r2
    loads1 r4, r1, 1
    fmovi f1, 2.5
    fmovi f2, 4.0
    fmul  f3, f1, f2
    fstore r3, 8, f3
    fload  f4, r3, 8
    ftoi  r5, f4
    movi  r6, 0
    movi  r7, 3
loop:
    addi  r6, r6, 1
    blt   r6, r7, loop
    call  helper
    sys   rand
    halt
}
func helper {
    alloc r8, r7
    itof  f5, r7
    fcmp  r9, f5, f1
    ret
}
`
	p1, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	reSrc, err := listingSource(p1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Assemble(reSrc)
	if err != nil {
		t.Fatalf("reassembling listing: %v\n%s", err, reSrc)
	}
	if diff := sameProgram(p1, p2); diff != "" {
		t.Errorf("listing reassembles to a different program: %s\n%s", diff, reSrc)
	}

	run := func(p *Program) *Machine {
		m := NewMachine()
		if _, err := m.Run(p, nil); err != nil {
			t.Fatal(err)
		}
		return m
	}
	m1, m2 := run(p1), run(p2)
	if m1.Regs != m2.Regs {
		t.Errorf("register files diverge after round trip:\n%v\n%v", m1.Regs, m2.Regs)
	}
	if m1.FRegs != m2.FRegs {
		t.Errorf("fp register files diverge after round trip")
	}
	if m1.InstrCount() != m2.InstrCount() {
		t.Errorf("instruction counts diverge: %d vs %d", m1.InstrCount(), m2.InstrCount())
	}
}

func TestDisassembleFormats(t *testing.T) {
	cases := map[string]Instr{
		"movi r1, 42":       {Op: OpMovi, Rd: R1, Imm: 42},
		"add r1, r2, r3":    {Op: OpAdd, Rd: R1, Ra: R2, Rb: R3},
		"load4 r1, r2, 16":  {Op: OpLoad, Rd: R1, Ra: R2, Imm: 16, Size: 4},
		"store8 r2, -8, r3": {Op: OpStore, Ra: R2, Rb: R3, Imm: -8, Size: 8},
		"fadd f1, f2, f3":   {Op: OpFAdd, Rd: 1, Ra: 2, Rb: 3},
		"br L7":             {Op: OpBr, Target: 7},
		"sys write":         {Op: OpSys, Imm: int64(SysWrite)},
		"halt":              {Op: OpHalt},
		"ret":               {Op: OpRet},
	}
	for want, in := range cases {
		if got := in.String(); got != want {
			t.Errorf("Disassemble = %q, want %q", got, want)
		}
	}
}

func TestWriteListingLabels(t *testing.T) {
	b := NewBuilder()
	f := b.Func("main")
	top := f.Here()
	f.Addi(R1, R1, 1)
	f.Movi(R2, 10)
	f.Blt(R1, R2, top)
	f.Halt()
	var sb strings.Builder
	if err := mustBuild(b).WriteListing(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "L0:") {
		t.Errorf("listing missing branch-target label:\n%s", sb.String())
	}
}
