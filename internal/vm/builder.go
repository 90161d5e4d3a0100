package vm

import (
	"fmt"
	"math"
)

// Builder assembles a Program from Go code. Workload generators use it to
// emit virtual-ISA functions with forward-referenced labels and calls;
// Build resolves everything and validates the result.
type Builder struct {
	funcs    []*FuncBuilder
	segs     []Segment
	reserved []Region
	entry    string
	next     uint64 // next free global address
	errs     []error
}

// NewBuilder returns an empty Builder. The entry point defaults to "main".
func NewBuilder() *Builder {
	return &Builder{entry: "main", next: GlobalBase}
}

// SetEntry names the entry function (default "main").
func (b *Builder) SetEntry(name string) { b.entry = name }

// Data installs an initialized global data segment and returns its address.
// Segments are laid out consecutively with 64-byte alignment so distinct
// segments never share a cache line in line-granularity mode.
func (b *Builder) Data(name string, data []byte) uint64 {
	addr := b.next
	b.segs = append(b.segs, Segment{Name: name, Addr: addr, Data: data})
	b.next = align(addr+uint64(len(data)), 64)
	return addr
}

// Reserve returns the address of an uninitialized (zero) global region of the
// given size. The machine's memory is zero on first touch, so no segment
// data is installed; the region is recorded on the program so the static
// verifier knows the range is declared.
func (b *Builder) Reserve(name string, size uint64) uint64 {
	addr := b.next
	b.reserved = append(b.reserved, Region{Name: name, Addr: addr, Size: size})
	b.next = align(addr+size, 64)
	return addr
}

func align(a, to uint64) uint64 { return (a + to - 1) &^ (to - 1) }

// Func starts (or resumes) a function with the given name and returns its
// FuncBuilder. Calling Func twice with the same name returns the same
// builder, so code can be appended from multiple sites.
func (b *Builder) Func(name string) *FuncBuilder {
	for _, f := range b.funcs {
		if f.name == name {
			return f
		}
	}
	f := &FuncBuilder{b: b, name: name}
	b.funcs = append(b.funcs, f)
	return f
}

// Build resolves labels and call targets, validates, and returns the program.
func (b *Builder) Build() (*Program, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	p := &Program{Segments: b.segs, Reserved: b.reserved}
	index := make(map[string]int, len(b.funcs))
	for i, fb := range b.funcs {
		index[fb.name] = i
	}
	for _, fb := range b.funcs {
		if len(fb.unbound) > 0 {
			return nil, fmt.Errorf("vm: function %q has %d unbound labels", fb.name, len(fb.unbound))
		}
		code := make([]Instr, len(fb.code))
		copy(code, fb.code)
		for pc := range code {
			in := &code[pc]
			if in.Op == OpCall {
				callee := fb.calls[pc]
				ci, ok := index[callee]
				if !ok {
					return nil, fmt.Errorf("vm: %s+%d calls undefined function %q", fb.name, pc, callee)
				}
				in.Target = int32(ci)
			}
		}
		p.Funcs = append(p.Funcs, &Function{Name: fb.name, Code: code})
	}
	entry, ok := index[b.entry]
	if !ok {
		return nil, fmt.Errorf("vm: entry function %q not defined", b.entry)
	}
	p.Entry = entry
	p.buildIndex()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := p.Verify(); err != nil {
		return nil, err
	}
	return p, nil
}

// Label is an abstract jump target within one function. Create with
// FuncBuilder.NewLabel, place with Bind, and reference from branch emitters
// before or after binding.
type Label int

// FuncBuilder accumulates instructions for one function.
type FuncBuilder struct {
	b       *Builder
	name    string
	code    []Instr
	calls   map[int]string // pc of OpCall -> callee name
	labels  []int          // label -> bound pc (-1 while unbound)
	patches map[Label][]int
	unbound map[Label]bool
}

// Name returns the function's name.
func (f *FuncBuilder) Name() string { return f.name }

// Len returns the number of instructions emitted so far.
func (f *FuncBuilder) Len() int { return len(f.code) }

// NewLabel allocates an unbound label.
func (f *FuncBuilder) NewLabel() Label {
	if f.unbound == nil {
		f.unbound = make(map[Label]bool)
		f.patches = make(map[Label][]int)
	}
	l := Label(len(f.labels))
	f.labels = append(f.labels, -1)
	f.unbound[l] = true
	return l
}

// Bind places the label at the next emitted instruction.
func (f *FuncBuilder) Bind(l Label) {
	if int(l) >= len(f.labels) {
		f.fail("bind of unknown label %d", l)
		return
	}
	if f.labels[l] >= 0 {
		f.fail("label %d bound twice", l)
		return
	}
	pc := len(f.code)
	f.labels[l] = pc
	for _, site := range f.patches[l] {
		f.code[site].Target = int32(pc)
	}
	delete(f.patches, l)
	delete(f.unbound, l)
}

// Here creates and binds a label at the current position, for backward
// branches: top := f.Here(); ...; f.Bne(r1, r2, top).
func (f *FuncBuilder) Here() Label {
	l := f.NewLabel()
	f.Bind(l)
	return l
}

func (f *FuncBuilder) fail(format string, args ...any) {
	f.b.errs = append(f.b.errs, fmt.Errorf("vm: function %q: "+format, append([]any{f.name}, args...)...))
}

func (f *FuncBuilder) emit(in Instr) *FuncBuilder {
	f.code = append(f.code, in)
	return f
}

// target returns the pc label l is bound at, or -1 after recording the
// next instruction as a site to patch when l is bound.
func (f *FuncBuilder) target(l Label) int32 {
	if int(l) < len(f.labels) && f.labels[l] >= 0 {
		return int32(f.labels[l])
	}
	f.patches[l] = append(f.patches[l], len(f.code))
	return -1
}

// callee records the next instruction as a call of the named function,
// resolved at Build, and returns its placeholder target.
func (f *FuncBuilder) callee(name string) int32 {
	if f.calls == nil {
		f.calls = make(map[int]string)
	}
	f.calls[len(f.code)] = name
	return -1
}

func (f *FuncBuilder) emitBranch(op Op, ra, rb Reg, l Label) *FuncBuilder {
	return f.emit(Instr{Op: op, Ra: ra, Rb: rb, Target: f.target(l)})
}

// --- integer ---

// Movi emits rd <- imm.
func (f *FuncBuilder) Movi(rd Reg, imm int64) *FuncBuilder {
	return f.emit(Instr{Op: OpMovi, Rd: rd, Imm: imm})
}

// MoviU emits rd <- imm for an unsigned 64-bit immediate (e.g. addresses).
func (f *FuncBuilder) MoviU(rd Reg, imm uint64) *FuncBuilder {
	return f.emit(Instr{Op: OpMovi, Rd: rd, Imm: int64(imm)})
}

// Mov emits rd <- ra.
func (f *FuncBuilder) Mov(rd, ra Reg) *FuncBuilder {
	return f.emit(Instr{Op: OpMov, Rd: rd, Ra: ra})
}

// Add emits rd <- ra + rb.
func (f *FuncBuilder) Add(rd, ra, rb Reg) *FuncBuilder {
	return f.emit(Instr{Op: OpAdd, Rd: rd, Ra: ra, Rb: rb})
}

// Sub emits rd <- ra - rb.
func (f *FuncBuilder) Sub(rd, ra, rb Reg) *FuncBuilder {
	return f.emit(Instr{Op: OpSub, Rd: rd, Ra: ra, Rb: rb})
}

// Mul emits rd <- ra * rb.
func (f *FuncBuilder) Mul(rd, ra, rb Reg) *FuncBuilder {
	return f.emit(Instr{Op: OpMul, Rd: rd, Ra: ra, Rb: rb})
}

// Div emits rd <- ra / rb (signed).
func (f *FuncBuilder) Div(rd, ra, rb Reg) *FuncBuilder {
	return f.emit(Instr{Op: OpDiv, Rd: rd, Ra: ra, Rb: rb})
}

// Rem emits rd <- ra % rb (signed).
func (f *FuncBuilder) Rem(rd, ra, rb Reg) *FuncBuilder {
	return f.emit(Instr{Op: OpRem, Rd: rd, Ra: ra, Rb: rb})
}

// And emits rd <- ra & rb.
func (f *FuncBuilder) And(rd, ra, rb Reg) *FuncBuilder {
	return f.emit(Instr{Op: OpAnd, Rd: rd, Ra: ra, Rb: rb})
}

// Or emits rd <- ra | rb.
func (f *FuncBuilder) Or(rd, ra, rb Reg) *FuncBuilder {
	return f.emit(Instr{Op: OpOr, Rd: rd, Ra: ra, Rb: rb})
}

// Xor emits rd <- ra ^ rb.
func (f *FuncBuilder) Xor(rd, ra, rb Reg) *FuncBuilder {
	return f.emit(Instr{Op: OpXor, Rd: rd, Ra: ra, Rb: rb})
}

// Shl emits rd <- ra << rb.
func (f *FuncBuilder) Shl(rd, ra, rb Reg) *FuncBuilder {
	return f.emit(Instr{Op: OpShl, Rd: rd, Ra: ra, Rb: rb})
}

// Shr emits rd <- ra >> rb (logical).
func (f *FuncBuilder) Shr(rd, ra, rb Reg) *FuncBuilder {
	return f.emit(Instr{Op: OpShr, Rd: rd, Ra: ra, Rb: rb})
}

// Sar emits rd <- ra >> rb (arithmetic).
func (f *FuncBuilder) Sar(rd, ra, rb Reg) *FuncBuilder {
	return f.emit(Instr{Op: OpSar, Rd: rd, Ra: ra, Rb: rb})
}

// Addi emits rd <- ra + imm.
func (f *FuncBuilder) Addi(rd, ra Reg, imm int64) *FuncBuilder {
	return f.emit(Instr{Op: OpAddi, Rd: rd, Ra: ra, Imm: imm})
}

// Muli emits rd <- ra * imm.
func (f *FuncBuilder) Muli(rd, ra Reg, imm int64) *FuncBuilder {
	return f.emit(Instr{Op: OpMuli, Rd: rd, Ra: ra, Imm: imm})
}

// Andi emits rd <- ra & imm.
func (f *FuncBuilder) Andi(rd, ra Reg, imm int64) *FuncBuilder {
	return f.emit(Instr{Op: OpAndi, Rd: rd, Ra: ra, Imm: imm})
}

// Ori emits rd <- ra | imm.
func (f *FuncBuilder) Ori(rd, ra Reg, imm int64) *FuncBuilder {
	return f.emit(Instr{Op: OpOri, Rd: rd, Ra: ra, Imm: imm})
}

// Xori emits rd <- ra ^ imm.
func (f *FuncBuilder) Xori(rd, ra Reg, imm int64) *FuncBuilder {
	return f.emit(Instr{Op: OpXori, Rd: rd, Ra: ra, Imm: imm})
}

// Shli emits rd <- ra << imm.
func (f *FuncBuilder) Shli(rd, ra Reg, imm int64) *FuncBuilder {
	return f.emit(Instr{Op: OpShli, Rd: rd, Ra: ra, Imm: imm})
}

// Shri emits rd <- ra >> imm (logical).
func (f *FuncBuilder) Shri(rd, ra Reg, imm int64) *FuncBuilder {
	return f.emit(Instr{Op: OpShri, Rd: rd, Ra: ra, Imm: imm})
}

// Slt emits rd <- (ra < rb) signed.
func (f *FuncBuilder) Slt(rd, ra, rb Reg) *FuncBuilder {
	return f.emit(Instr{Op: OpSlt, Rd: rd, Ra: ra, Rb: rb})
}

// Sltu emits rd <- (ra < rb) unsigned.
func (f *FuncBuilder) Sltu(rd, ra, rb Reg) *FuncBuilder {
	return f.emit(Instr{Op: OpSltu, Rd: rd, Ra: ra, Rb: rb})
}

// Seq emits rd <- (ra == rb).
func (f *FuncBuilder) Seq(rd, ra, rb Reg) *FuncBuilder {
	return f.emit(Instr{Op: OpSeq, Rd: rd, Ra: ra, Rb: rb})
}

// --- floating point ---

// FMovi emits fd <- imm.
func (f *FuncBuilder) FMovi(fd FReg, imm float64) *FuncBuilder {
	return f.emit(Instr{Op: OpFMovi, Rd: Reg(fd), Imm: int64(math.Float64bits(imm))})
}

// FMov emits fd <- fa.
func (f *FuncBuilder) FMov(fd, fa FReg) *FuncBuilder {
	return f.emit(Instr{Op: OpFMov, Rd: Reg(fd), Ra: Reg(fa)})
}

// FAdd emits fd <- fa + fb.
func (f *FuncBuilder) FAdd(fd, fa, fb FReg) *FuncBuilder {
	return f.emit(Instr{Op: OpFAdd, Rd: Reg(fd), Ra: Reg(fa), Rb: Reg(fb)})
}

// FSub emits fd <- fa - fb.
func (f *FuncBuilder) FSub(fd, fa, fb FReg) *FuncBuilder {
	return f.emit(Instr{Op: OpFSub, Rd: Reg(fd), Ra: Reg(fa), Rb: Reg(fb)})
}

// FMul emits fd <- fa * fb.
func (f *FuncBuilder) FMul(fd, fa, fb FReg) *FuncBuilder {
	return f.emit(Instr{Op: OpFMul, Rd: Reg(fd), Ra: Reg(fa), Rb: Reg(fb)})
}

// FDiv emits fd <- fa / fb.
func (f *FuncBuilder) FDiv(fd, fa, fb FReg) *FuncBuilder {
	return f.emit(Instr{Op: OpFDiv, Rd: Reg(fd), Ra: Reg(fa), Rb: Reg(fb)})
}

// FNeg emits fd <- -fa.
func (f *FuncBuilder) FNeg(fd, fa FReg) *FuncBuilder {
	return f.emit(Instr{Op: OpFNeg, Rd: Reg(fd), Ra: Reg(fa)})
}

// FAbs emits fd <- |fa|.
func (f *FuncBuilder) FAbs(fd, fa FReg) *FuncBuilder {
	return f.emit(Instr{Op: OpFAbs, Rd: Reg(fd), Ra: Reg(fa)})
}

// FSqrt emits fd <- sqrt(fa).
func (f *FuncBuilder) FSqrt(fd, fa FReg) *FuncBuilder {
	return f.emit(Instr{Op: OpFSqrt, Rd: Reg(fd), Ra: Reg(fa)})
}

// FMin emits fd <- min(fa, fb).
func (f *FuncBuilder) FMin(fd, fa, fb FReg) *FuncBuilder {
	return f.emit(Instr{Op: OpFMin, Rd: Reg(fd), Ra: Reg(fa), Rb: Reg(fb)})
}

// FMax emits fd <- max(fa, fb).
func (f *FuncBuilder) FMax(fd, fa, fb FReg) *FuncBuilder {
	return f.emit(Instr{Op: OpFMax, Rd: Reg(fd), Ra: Reg(fa), Rb: Reg(fb)})
}

// ItoF emits fd <- float64(ra).
func (f *FuncBuilder) ItoF(fd FReg, ra Reg) *FuncBuilder {
	return f.emit(Instr{Op: OpItoF, Rd: Reg(fd), Ra: ra})
}

// FtoI emits rd <- int64(fa).
func (f *FuncBuilder) FtoI(rd Reg, fa FReg) *FuncBuilder {
	return f.emit(Instr{Op: OpFtoI, Rd: rd, Ra: Reg(fa)})
}

// FCmp emits rd <- -1/0/+1 comparing fa with fb.
func (f *FuncBuilder) FCmp(rd Reg, fa, fb FReg) *FuncBuilder {
	return f.emit(Instr{Op: OpFCmp, Rd: rd, Ra: Reg(fa), Rb: Reg(fb)})
}

// --- memory ---

// Load emits rd <- mem[ra+off] with the given access size, zero-extended.
func (f *FuncBuilder) Load(rd, ra Reg, off int64, size uint8) *FuncBuilder {
	return f.emit(Instr{Op: OpLoad, Rd: rd, Ra: ra, Imm: off, Size: size})
}

// LoadS is Load with sign extension.
func (f *FuncBuilder) LoadS(rd, ra Reg, off int64, size uint8) *FuncBuilder {
	return f.emit(Instr{Op: OpLoadS, Rd: rd, Ra: ra, Imm: off, Size: size})
}

// Store emits mem[ra+off] <- rb with the given access size.
func (f *FuncBuilder) Store(ra Reg, off int64, rb Reg, size uint8) *FuncBuilder {
	return f.emit(Instr{Op: OpStore, Ra: ra, Rb: rb, Imm: off, Size: size})
}

// FLoad emits fd <- mem[ra+off] as a float64.
func (f *FuncBuilder) FLoad(fd FReg, ra Reg, off int64) *FuncBuilder {
	return f.emit(Instr{Op: OpFLoad, Rd: Reg(fd), Ra: ra, Imm: off, Size: 8})
}

// FStore emits mem[ra+off] <- fa as a float64.
func (f *FuncBuilder) FStore(ra Reg, off int64, fa FReg) *FuncBuilder {
	return f.emit(Instr{Op: OpFStore, Ra: ra, Rb: Reg(fa), Imm: off, Size: 8})
}

// --- control ---

// Br emits an unconditional jump to l.
func (f *FuncBuilder) Br(l Label) *FuncBuilder { return f.emitBranch(OpBr, 0, 0, l) }

// Beq emits a branch to l when ra == rb.
func (f *FuncBuilder) Beq(ra, rb Reg, l Label) *FuncBuilder { return f.emitBranch(OpBeq, ra, rb, l) }

// Bne emits a branch to l when ra != rb.
func (f *FuncBuilder) Bne(ra, rb Reg, l Label) *FuncBuilder { return f.emitBranch(OpBne, ra, rb, l) }

// Blt emits a branch to l when ra < rb (signed).
func (f *FuncBuilder) Blt(ra, rb Reg, l Label) *FuncBuilder { return f.emitBranch(OpBlt, ra, rb, l) }

// Bge emits a branch to l when ra >= rb (signed).
func (f *FuncBuilder) Bge(ra, rb Reg, l Label) *FuncBuilder { return f.emitBranch(OpBge, ra, rb, l) }

// Bltu emits a branch to l when ra < rb (unsigned).
func (f *FuncBuilder) Bltu(ra, rb Reg, l Label) *FuncBuilder { return f.emitBranch(OpBltu, ra, rb, l) }

// Bgeu emits a branch to l when ra >= rb (unsigned).
func (f *FuncBuilder) Bgeu(ra, rb Reg, l Label) *FuncBuilder { return f.emitBranch(OpBgeu, ra, rb, l) }

// Call emits a call to the named function (resolved at Build).
func (f *FuncBuilder) Call(name string) *FuncBuilder {
	return f.emit(Instr{Op: OpCall, Target: f.callee(name)})
}

// Ret emits a return.
func (f *FuncBuilder) Ret() *FuncBuilder { return f.emit(Instr{Op: OpRet}) }

// Halt emits program termination.
func (f *FuncBuilder) Halt() *FuncBuilder { return f.emit(Instr{Op: OpHalt}) }

// Alloc emits rd <- alloc(ra) bytes from the heap.
func (f *FuncBuilder) Alloc(rd, ra Reg) *FuncBuilder {
	return f.emit(Instr{Op: OpAlloc, Rd: rd, Ra: ra})
}

// Sys emits a syscall.
func (f *FuncBuilder) Sys(s Sys) *FuncBuilder {
	return f.emit(Instr{Op: OpSys, Imm: int64(s)})
}

// Nop emits a no-op.
func (f *FuncBuilder) Nop() *FuncBuilder { return f.emit(Instr{Op: OpNop}) }
