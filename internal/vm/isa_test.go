package vm

import (
	"math"
	"strings"
	"testing"
)

func TestOpClassQueries(t *testing.T) {
	if ClassFPAdd.String() != "fpadd" || OpClass(200).String() == "" {
		t.Error("OpClass.String broken")
	}
}

func TestInstrClass(t *testing.T) {
	if classOf[OpFMul] != ClassFPMul || classOf[OpItoF] != ClassConv {
		t.Error("fmul or itof class")
	}
	if classOf[OpLoad] != ClassNone || classOf[OpCall] != ClassNone {
		t.Error("memory and control ops should have no arithmetic class")
	}
	if !(Instr{Op: OpBeq}).IsBranch() || (Instr{Op: OpBr}).IsBranch() {
		t.Error("IsBranch covers conditional branches only")
	}
}

func TestOpAndSysNames(t *testing.T) {
	if OpAdd.String() != "add" || Op(250).String() == "" {
		t.Error("Op.String broken")
	}
	if SysRead.Name() != "read" || Sys(99).Name() == "" {
		t.Error("Sys.Name broken")
	}
}

func TestMemoryFootprint(t *testing.T) {
	m := NewMemory()
	m.Store(0, 8, 1)
	m.Store(1<<20, 8, 1)
	if m.PagesAllocated() != 2 {
		t.Errorf("pages = %d, want 2", m.PagesAllocated())
	}
}

// TestFPLoadStoreRegisterBound: fload and fstore name an FP register, so a
// field inside the 32 integer registers but past the 16 FP ones is refused
// at Build and at Run, never reached by the interpreter.
func TestFPLoadStoreRegisterBound(t *testing.T) {
	cases := map[string]struct {
		emit func(f *FuncBuilder)
		in   Instr
	}{
		"fload f16":  {func(f *FuncBuilder) { f.FLoad(FReg(16), R1, 0) }, Instr{Op: OpFLoad, Rd: 16, Ra: R1, Size: 8}},
		"fstore f31": {func(f *FuncBuilder) { f.FStore(R1, 0, FReg(31)) }, Instr{Op: OpFStore, Ra: R1, Rb: 31, Size: 8}},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			b := NewBuilder()
			f := b.Func("main")
			f.Movi(R1, int64(HeapBase))
			c.emit(f)
			f.Halt()
			if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "fp register out of range") {
				t.Errorf("Build: err = %v, want fp register out of range", err)
			}

			p := &Program{Funcs: []*Function{{Name: "main", Code: []Instr{c.in, {Op: OpHalt}}}}}
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("Run panicked: %v", r)
				}
			}()
			if _, err := NewMachine().Run(p, nil); err == nil || !strings.Contains(err.Error(), "fp register out of range") {
				t.Errorf("Run: err = %v, want fp register out of range", err)
			}
		})
	}
}

// TestEveryOpcodeRoundTrips walks opDefs. Every opcode, at every width of a
// sized access and with every syscall, and with its operands at the ends of
// their ranges, must list as text that assembles back to the same
// instruction; and Validate must reject it with any one register operand
// one past its register file.
func TestEveryOpcodeRoundTrips(t *testing.T) {
	const backward, forward = 0, 4 // label targets around the tested pc 1
	choices := map[argKind][]Instr{
		kindReg:    {{Rd: NumRegs - 1, Ra: NumRegs - 1, Rb: NumRegs - 1}},
		kindFReg:   {{Rd: NumFRegs - 1, Ra: NumFRegs - 1, Rb: NumFRegs - 1}},
		kindImm:    {{Imm: math.MinInt64}, {Imm: math.MaxInt64}},
		kindFImm:   {{Imm: int64(math.Float64bits(-math.MaxFloat64))}, {Imm: int64(math.Float64bits(math.MaxFloat64))}},
		kindLabel:  {{Target: backward}, {Target: forward}},
		kindCallee: {{Target: 1}},
	}
	for s := range sysCount {
		choices[kindSys] = append(choices[kindSys], Instr{Imm: int64(s)})
	}

	checked := 0
	for op := range opDefs {
		d := &opDefs[op]
		sizes := []uint8{0}
		switch {
		case d.sized:
			sizes = accessSizes[:]
		case d.mem:
			sizes = []uint8{8}
		}
		variants := []Instr{}
		for _, size := range sizes {
			variants = append(variants, Instr{Op: Op(op), Size: size})
		}
		// Cross every variant with every choice for each operand.
		for _, a := range d.args {
			var next []Instr
			for _, in := range variants {
				for _, c := range choices[a.kind] {
					switch a.kind {
					case kindReg, kindFReg:
						*in.reg(a.field) = *c.reg(a.field)
					case kindImm, kindFImm, kindSys:
						in.Imm = c.Imm
					case kindLabel, kindCallee:
						in.Target = c.Target
					}
					next = append(next, in)
				}
			}
			variants = next
		}

		for _, in := range variants {
			p := opcodeProgram(in)
			if err := p.Validate(); err != nil {
				t.Errorf("%s: %v", in.Disassemble(p), err)
				continue
			}
			src, err := listingSource(p)
			if err != nil {
				t.Fatal(err)
			}
			p2, err := Assemble(src)
			if err != nil {
				t.Errorf("%s: listing does not assemble: %v\n%s", in.Disassemble(p), err, src)
				continue
			}
			if diff := sameProgram(p, p2); diff != "" {
				t.Errorf("%s: listing assembles to a different program: %s", in.Disassemble(p), diff)
			}
			checked++

			for _, a := range d.args {
				limit, want := Reg(NumRegs), "register out of range"
				switch a.kind {
				case kindFReg:
					limit, want = NumFRegs, "fp register out of range"
				case kindReg:
				default:
					continue
				}
				bad := in
				*bad.reg(a.field) = limit
				err := opcodeProgram(bad).Validate()
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("%s with field %d at %d: Validate = %v, want %s", in.Disassemble(p), a.field, limit, err, want)
				}
			}
		}
	}
	if checked < int(opCount) {
		t.Errorf("checked %d instructions, fewer than the %d opcodes", checked, opCount)
	}
}

// opcodeProgram places in at pc 1 of a function whose every instruction is
// reachable, whatever in does, with labels at pc 0 and pc 4 and a callee at
// function index 1.
func opcodeProgram(in Instr) *Program {
	return &Program{Funcs: []*Function{
		{Name: "main", Code: []Instr{{Op: OpHalt}}},
		{Name: "leaf", Code: []Instr{{Op: OpRet}}},
		{Name: "test", Code: []Instr{
			{Op: OpBeq, Ra: R0, Rb: R1, Target: 2},
			in,
			{Op: OpBeq, Ra: R0, Rb: R1, Target: 4},
			{Op: OpRet},
			{Op: OpRet},
		}},
	}}
}
