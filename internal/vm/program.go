package vm

import (
	"fmt"
	"slices"
	"sort"
)

// Function is one unit of code: a named sequence of instructions. Branch
// targets are indices into Code; calls reference other functions by index
// into the owning Program.
type Function struct {
	Name string
	Code []Instr
}

// Segment is a range of initialized memory installed before the program
// starts, playing the role of the data/rodata sections of a native binary.
type Segment struct {
	Name string
	Addr uint64
	Data []byte
}

// Address-space layout. The layout is fixed so workload generators can place
// data deterministically; the machine's memory is sparse, so unused space
// costs nothing.
const (
	// GlobalBase is where the builder places data segments.
	GlobalBase uint64 = 0x0001_0000
	// HeapBase is where OpAlloc bump allocation starts.
	HeapBase uint64 = 0x1000_0000
	// StackBase is scratch space available by convention (the machine
	// keeps its own call stack; this region is for programs that want
	// explicit scratch memory).
	StackBase uint64 = 0x7000_0000
)

// Region is a named range of uninitialized (zero-on-touch) global memory
// declared via Builder.Reserve or the assembler's .reserve directive. The
// machine needs no segment for it, but the static verifier uses the record
// to decide which constant addresses a program may legally touch.
type Region struct {
	Name string
	Addr uint64
	Size uint64
}

// Program is an executable image: functions, initialized data segments and
// an entry point.
type Program struct {
	Funcs    []*Function
	Segments []Segment
	Reserved []Region
	Entry    int // index into Funcs

	index map[string]int
}

// FuncIndex returns the index of the named function and whether it exists.
func (p *Program) FuncIndex(name string) (int, bool) {
	i, ok := p.index[name]
	return i, ok
}

// FuncName returns the name of function i, or a placeholder for out-of-range
// indices (useful when rendering partially corrupt profiles).
func (p *Program) FuncName(i int) string {
	if i >= 0 && i < len(p.Funcs) {
		return p.Funcs[i].Name
	}
	return fmt.Sprintf("<fn#%d>", i)
}

// NumInstrs returns the total static instruction count across functions.
func (p *Program) NumInstrs() int {
	n := 0
	for _, f := range p.Funcs {
		n += len(f.Code)
	}
	return n
}

// Validate checks structural invariants: a valid entry point, resolved branch
// and call targets, sane access sizes, and non-overlapping segments. The
// builder and assembler call it on every Build, and the machine refuses to
// run a program that fails validation.
func (p *Program) Validate() error {
	if len(p.Funcs) == 0 {
		return fmt.Errorf("vm: program has no functions")
	}
	if p.Entry < 0 || p.Entry >= len(p.Funcs) {
		return fmt.Errorf("vm: entry index %d out of range [0,%d)", p.Entry, len(p.Funcs))
	}
	names := make(map[string]bool, len(p.Funcs))
	for fi, f := range p.Funcs {
		if f.Name == "" {
			return fmt.Errorf("vm: function #%d has empty name", fi)
		}
		if names[f.Name] {
			return fmt.Errorf("vm: duplicate function name %q", f.Name)
		}
		names[f.Name] = true
		if len(f.Code) == 0 {
			return fmt.Errorf("vm: function %q has no code", f.Name)
		}
		for pc, in := range f.Code {
			if err := p.validateInstr(f, pc, in); err != nil {
				return err
			}
		}
	}
	segs := make([]Segment, len(p.Segments))
	copy(segs, p.Segments)
	sort.Slice(segs, func(i, j int) bool { return segs[i].Addr < segs[j].Addr })
	for i := 1; i < len(segs); i++ {
		prev := segs[i-1]
		if prev.Addr+uint64(len(prev.Data)) > segs[i].Addr {
			return fmt.Errorf("vm: segments %q and %q overlap", prev.Name, segs[i].Name)
		}
	}
	for _, s := range segs {
		if s.Addr+uint64(len(s.Data)) >= HeapBase && s.Addr < StackBase {
			if s.Addr >= HeapBase {
				return fmt.Errorf("vm: segment %q intrudes into the heap region", s.Name)
			}
		}
	}
	// The first alloc returns HeapBase, so a reserved region reaching it
	// would alias heap objects; one wrapping past 2^64 would make the
	// builder place the next global inside it.
	for _, r := range p.Reserved {
		end := r.Addr + r.Size
		if end < r.Addr {
			return fmt.Errorf("vm: reserved region %q (%d bytes at %#x) wraps past the top of the address space", r.Name, r.Size, r.Addr)
		}
		if end > HeapBase {
			return fmt.Errorf("vm: reserved region %q (%d bytes at %#x) reaches the heap at %#x", r.Name, r.Size, r.Addr, HeapBase)
		}
	}
	return nil
}

func (p *Program) validateInstr(f *Function, pc int, in Instr) error {
	bad := func(format string, args ...any) error {
		prefix := fmt.Sprintf("vm: %s+%d (%s): ", f.Name, pc, in.Op)
		return fmt.Errorf(prefix+format, args...)
	}
	if in.Op >= opCount {
		return bad("unknown opcode %d", uint8(in.Op))
	}
	d := &opDefs[in.Op]
	if in.Rd >= d.regLimit[fieldRd] || in.Ra >= d.regLimit[fieldRa] || in.Rb >= d.regLimit[fieldRb] {
		if in.Rd >= NumRegs || in.Ra >= NumRegs || in.Rb >= NumRegs {
			return bad("register out of range")
		}
		return bad("fp register out of range")
	}
	for _, a := range d.args {
		switch a.kind {
		case kindLabel:
			if in.Target < 0 || int(in.Target) >= len(f.Code) {
				return bad("branch target %d out of range [0,%d)", in.Target, len(f.Code))
			}
		case kindCallee:
			if in.Target < 0 || int(in.Target) >= len(p.Funcs) {
				return bad("call target %d out of range [0,%d)", in.Target, len(p.Funcs))
			}
		case kindSys:
			if in.Imm < 0 || in.Imm >= int64(sysCount) {
				return bad("unknown syscall %d", in.Imm)
			}
		}
	}
	switch {
	case d.sized && !slices.Contains(accessSizes[:], in.Size):
		return bad("invalid access size %d", in.Size)
	case d.mem && !d.sized && in.Size != 8:
		return bad("fp access size must be 8, got %d", in.Size)
	}
	return nil
}

func (p *Program) buildIndex() {
	p.index = make(map[string]int, len(p.Funcs))
	for i, f := range p.Funcs {
		p.index[f.Name] = i
	}
}
