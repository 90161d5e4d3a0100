// Package vm implements a small register-based virtual instruction set and
// interpreter. It stands in for the native binaries that the paper profiles
// under Valgrind: programs written against this ISA emit the same primitive
// stream — memory accesses, arithmetic operations, calls/returns, branches
// and syscalls — that a dynamic binary instrumentation framework observes,
// which is all the Sigil methodology consumes.
package vm

import (
	"fmt"
	"slices"
	"strconv"
)

// Reg names an integer register. The machine has 32 integer registers
// (R0..R31) of 64 bits each. By convention R0 carries integer return values
// and R1..R15 carry call arguments; the machine snapshots and restores the
// full register file around calls, so every register is callee-saved except
// the return registers R0 and F0.
type Reg uint8

// Integer registers.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
	R16
	R17
	R18
	R19
	R20
	R21
	R22
	R23
	R24
	R25
	R26
	R27
	R28
	R29
	R30
	R31
)

// NumRegs is the size of the integer register file.
const NumRegs = 32

// FReg names a floating-point register. The machine has 16 float64 registers
// (F0..F15); F0 carries floating-point return values.
type FReg uint8

// Floating-point registers.
const (
	F0 FReg = iota
	F1
	F2
	F3
	F4
	F5
	F6
	F7
	F8
	F9
	F10
	F11
	F12
	F13
	F14
	F15
)

// NumFRegs is the size of the floating-point register file.
const NumFRegs = 16

// Op is a virtual-ISA opcode.
type Op uint8

// Opcodes. Arithmetic ops name their operand class so the instrumentation
// layer can classify retired operations the way the paper's modified
// Callgrind logs integer and floating-point operations.
const (
	OpNop Op = iota

	// Integer moves and arithmetic: Rd <- Ra op Rb (or immediate forms).
	OpMovi // Rd <- Imm
	OpMov  // Rd <- Ra
	OpAdd
	OpSub
	OpMul
	OpDiv // signed; divide by zero traps
	OpRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr // logical shift right
	OpSar // arithmetic shift right
	OpAddi
	OpMuli
	OpAndi
	OpOri
	OpXori
	OpShli
	OpShri

	// Comparisons: Rd <- 1 if Ra cmp Rb else 0.
	OpSlt  // signed less-than
	OpSltu // unsigned less-than
	OpSeq

	// Floating point: Fd <- Fa op Fb.
	OpFMovi // Fd <- float64 immediate (bits carried in Imm)
	OpFMov
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFNeg
	OpFAbs
	OpFSqrt
	OpFMin
	OpFMax

	// Conversions between the register files.
	OpItoF // Fd <- float64(Ra)
	OpFtoI // Rd <- int64(Fa), truncating
	OpFCmp // Rd <- -1/0/1 comparing Fa, Fb

	// Memory: address is Ra+Imm; Size selects 1, 2, 4 or 8 bytes.
	// Loads zero-extend; OpLoadS sign-extends.
	OpLoad
	OpLoadS
	OpStore
	OpFLoad  // 8-byte float64 load into Fd
	OpFStore // 8-byte float64 store from Fa

	// Control flow. Branch targets are instruction indices within the
	// function, resolved by the builder/assembler.
	OpBr
	OpBeq
	OpBne
	OpBlt  // signed
	OpBge  // signed
	OpBltu // unsigned
	OpBgeu // unsigned
	OpCall // Target is a function index in the program
	OpRet
	OpHalt

	// OpAlloc bump-allocates Ra bytes from the heap; Rd <- base address.
	// Allocation is 8-byte aligned and never freed (the profiled programs
	// are short-lived, matching the paper's run-once workloads).
	OpAlloc

	// OpSys invokes a host syscall; Imm is a Sys number. Register
	// conventions are documented with each Sys constant.
	OpSys

	opCount // number of opcodes; keep last
)

// Sys identifies a host syscall. The paper notes system calls are not fully
// visible to Valgrind: Sigil records their names and input/output byte counts
// but cannot see inside them. The machine reports syscalls to observers with
// exactly that information.
type Sys uint8

const (
	// SysRead fills memory at R1 with up to R2 bytes from the program's
	// input stream; R0 <- bytes actually read (0 at end of input).
	SysRead Sys = iota
	// SysWrite consumes R2 bytes at R1 into the program's output sink;
	// R0 <- bytes written.
	SysWrite
	// SysRand writes a pseudo-random uint64 to R0 (xorshift64 seeded by
	// the machine; deterministic across runs).
	SysRand
	// SysTime writes the retired-instruction count to R0, the
	// platform-independent time proxy used throughout the paper.
	SysTime

	sysCount
)

var sysNames = [...]string{
	SysRead:  "read",
	SysWrite: "write",
	SysRand:  "rand",
	SysTime:  "time",
}

// Name returns the syscall's name as reported to observers.
func (s Sys) Name() string {
	if int(s) < len(sysNames) {
		return sysNames[s]
	}
	return fmt.Sprintf("sys%d", uint8(s))
}

// OpClass classifies a retired operation for cost accounting, mirroring the
// paper's modification of Callgrind to log floating-point and integer
// operations separately.
type OpClass uint8

const (
	ClassNone   OpClass = iota
	ClassIntALU         // add/sub/logic/shift/compare/move
	ClassIntMul
	ClassIntDiv
	ClassFPAdd // fp add/sub/neg/abs/min/max/compare/move
	ClassFPMul
	ClassFPDiv // fp divide and sqrt
	ClassConv  // int<->fp conversion
)

var opClassNames = [...]string{
	ClassNone:   "none",
	ClassIntALU: "ialu",
	ClassIntMul: "imul",
	ClassIntDiv: "idiv",
	ClassFPAdd:  "fpadd",
	ClassFPMul:  "fpmul",
	ClassFPDiv:  "fpdiv",
	ClassConv:   "conv",
}

// String returns a short mnemonic for the class.
func (c OpClass) String() string {
	if int(c) < len(opClassNames) {
		return opClassNames[c]
	}
	return fmt.Sprintf("class%d", uint8(c))
}

// Instr is one decoded instruction. The same compact struct serves every
// opcode; unused fields are zero.
type Instr struct {
	Op     Op
	Rd     Reg   // destination (integer) or Fd when the op is FP
	Ra     Reg   // first source (integer) or Fa
	Rb     Reg   // second source (integer) or Fb
	Size   uint8 // load/store access size in bytes: 1, 2, 4, 8
	Imm    int64 // immediate / address offset / float64 bits / Sys number
	Target int32 // branch target (instruction index) or callee function index
}

// argKind is what an operand names, and so how the assembler parses it,
// the disassembler prints it and Validate bounds it.
type argKind uint8

const (
	kindReg    argKind = iota + 1 // integer register rN, in its register field
	kindFReg                      // floating-point register fN, in its register field
	kindImm                       // integer immediate or data symbol, in Imm
	kindFImm                      // float64 immediate, its bits in Imm
	kindLabel                     // branch target in the same function, in Target
	kindCallee                    // function called by name, its index in Target
	kindSys                       // syscall name, its Sys number in Imm
)

// regField is the register field of Instr a register operand fills.
type regField uint8

const (
	fieldRd regField = iota
	fieldRa
	fieldRb
)

// reg returns the register field f of the instruction.
func (i *Instr) reg(f regField) *Reg {
	switch f {
	case fieldRa:
		return &i.Ra
	case fieldRb:
		return &i.Rb
	}
	return &i.Rd
}

// operand is one assembler operand of an opcode.
type operand struct {
	kind  argKind
	field regField // register operands only
}

// The operands opcodes take, named after the field they fill.
var (
	argRd     = operand{kindReg, fieldRd}
	argRa     = operand{kindReg, fieldRa}
	argRb     = operand{kindReg, fieldRb}
	argFd     = operand{kindFReg, fieldRd}
	argFa     = operand{kindFReg, fieldRa}
	argFb     = operand{kindFReg, fieldRb}
	argImm    = operand{kind: kindImm}
	argFImm   = operand{kind: kindFImm}
	argLabel  = operand{kind: kindLabel}
	argCallee = operand{kind: kindCallee}
	argSys    = operand{kind: kindSys}
)

// accessSizes are the widths a sized memory access may carry.
var accessSizes = [...]uint8{1, 2, 4, 8}

// opDef declares one opcode: everything the assembler, the disassembler,
// Validate and Verify know of it.
type opDef struct {
	name  string
	class OpClass
	// mem marks an access of Size bytes at Ra+Imm. sized marks one whose
	// mnemonic carries the width (load4), one of accessSizes; an unsized
	// access is 8 bytes wide.
	mem, sized bool
	args       []operand // in assembler order

	// regLimit bounds the Rd, Ra and Rb fields: the FP register file for
	// FP operands, the integer file for integer ones. An opcode with an FP
	// operand holds the fields it does not name to the FP file too.
	regLimit [3]Reg
}

func def(name string, class OpClass, args ...operand) opDef {
	d := opDef{name: name, class: class, args: args, regLimit: [3]Reg{NumRegs, NumRegs, NumRegs}}
	if slices.ContainsFunc(args, func(a operand) bool { return a.kind == kindFReg }) {
		d.regLimit = [3]Reg{NumFRegs, NumFRegs, NumFRegs}
		for _, a := range args {
			if a.kind == kindReg {
				d.regLimit[a.field] = NumRegs
			}
		}
	}
	return d
}

func access(name string, sized bool, args ...operand) opDef {
	d := def(name, ClassNone, args...)
	d.mem, d.sized = true, sized
	return d
}

// opDefs declares every opcode once. Cost classes mirror the paper's
// modification of Callgrind to log floating-point and integer operations
// separately; pure control and memory opcodes have ClassNone.
var opDefs = [opCount]opDef{
	OpNop:  def("nop", ClassNone),
	OpMovi: def("movi", ClassIntALU, argRd, argImm),
	OpMov:  def("mov", ClassIntALU, argRd, argRa),
	OpAdd:  def("add", ClassIntALU, argRd, argRa, argRb),
	OpSub:  def("sub", ClassIntALU, argRd, argRa, argRb),
	OpMul:  def("mul", ClassIntMul, argRd, argRa, argRb),
	OpDiv:  def("div", ClassIntDiv, argRd, argRa, argRb),
	OpRem:  def("rem", ClassIntDiv, argRd, argRa, argRb),
	OpAnd:  def("and", ClassIntALU, argRd, argRa, argRb),
	OpOr:   def("or", ClassIntALU, argRd, argRa, argRb),
	OpXor:  def("xor", ClassIntALU, argRd, argRa, argRb),
	OpShl:  def("shl", ClassIntALU, argRd, argRa, argRb),
	OpShr:  def("shr", ClassIntALU, argRd, argRa, argRb),
	OpSar:  def("sar", ClassIntALU, argRd, argRa, argRb),
	OpAddi: def("addi", ClassIntALU, argRd, argRa, argImm),
	OpMuli: def("muli", ClassIntMul, argRd, argRa, argImm),
	OpAndi: def("andi", ClassIntALU, argRd, argRa, argImm),
	OpOri:  def("ori", ClassIntALU, argRd, argRa, argImm),
	OpXori: def("xori", ClassIntALU, argRd, argRa, argImm),
	OpShli: def("shli", ClassIntALU, argRd, argRa, argImm),
	OpShri: def("shri", ClassIntALU, argRd, argRa, argImm),
	OpSlt:  def("slt", ClassIntALU, argRd, argRa, argRb),
	OpSltu: def("sltu", ClassIntALU, argRd, argRa, argRb),
	OpSeq:  def("seq", ClassIntALU, argRd, argRa, argRb),

	OpFMovi: def("fmovi", ClassFPAdd, argFd, argFImm),
	OpFMov:  def("fmov", ClassFPAdd, argFd, argFa),
	OpFAdd:  def("fadd", ClassFPAdd, argFd, argFa, argFb),
	OpFSub:  def("fsub", ClassFPAdd, argFd, argFa, argFb),
	OpFMul:  def("fmul", ClassFPMul, argFd, argFa, argFb),
	OpFDiv:  def("fdiv", ClassFPDiv, argFd, argFa, argFb),
	OpFNeg:  def("fneg", ClassFPAdd, argFd, argFa),
	OpFAbs:  def("fabs", ClassFPAdd, argFd, argFa),
	OpFSqrt: def("fsqrt", ClassFPDiv, argFd, argFa),
	OpFMin:  def("fmin", ClassFPAdd, argFd, argFa, argFb),
	OpFMax:  def("fmax", ClassFPAdd, argFd, argFa, argFb),
	OpItoF:  def("itof", ClassConv, argFd, argRa),
	OpFtoI:  def("ftoi", ClassConv, argRd, argFa),
	OpFCmp:  def("fcmp", ClassFPAdd, argRd, argFa, argFb),

	OpLoad:   access("load", true, argRd, argRa, argImm),
	OpLoadS:  access("loads", true, argRd, argRa, argImm),
	OpStore:  access("store", true, argRa, argImm, argRb),
	OpFLoad:  access("fload", false, argFd, argRa, argImm),
	OpFStore: access("fstore", false, argRa, argImm, argFb),

	OpBr:    def("br", ClassNone, argLabel),
	OpBeq:   def("beq", ClassNone, argRa, argRb, argLabel),
	OpBne:   def("bne", ClassNone, argRa, argRb, argLabel),
	OpBlt:   def("blt", ClassNone, argRa, argRb, argLabel),
	OpBge:   def("bge", ClassNone, argRa, argRb, argLabel),
	OpBltu:  def("bltu", ClassNone, argRa, argRb, argLabel),
	OpBgeu:  def("bgeu", ClassNone, argRa, argRb, argLabel),
	OpCall:  def("call", ClassNone, argCallee),
	OpRet:   def("ret", ClassNone),
	OpHalt:  def("halt", ClassNone),
	OpAlloc: def("alloc", ClassNone, argRd, argRa),
	OpSys:   def("sys", ClassNone, argSys),
}

// unknownOp is the declaration of an opcode past opCount: no operands.
var unknownOp opDef

// def returns the opcode's declaration.
func (o Op) def() *opDef {
	if o < opCount {
		return &opDefs[o]
	}
	return &unknownOp
}

// classOf is opDefs' cost class per opcode, flat for the dispatch loop.
var classOf = func() (c [opCount]OpClass) {
	for op := range opDefs {
		c[op] = opDefs[op].class
	}
	return c
}()

// mnemonics maps every assembler mnemonic to the instruction it starts:
// its opcode and, for a memory access, its width.
var mnemonics = func() map[string]Instr {
	m := make(map[string]Instr)
	for op, d := range opDefs {
		switch {
		case d.sized:
			for _, size := range accessSizes {
				m[d.name+strconv.Itoa(int(size))] = Instr{Op: Op(op), Size: size}
			}
		case d.mem:
			m[d.name] = Instr{Op: Op(op), Size: 8}
		default:
			m[d.name] = Instr{Op: Op(op)}
		}
	}
	return m
}()

// opKinds has bit 1<<k set for each operand kind k of opDefs' opcode, flat
// and indexed by every Op value so the verifier's walks test it without a
// bounds check.
var opKinds = func() (m [256]uint8) {
	for op := range opDefs {
		for _, a := range opDefs[op].args {
			m[op] |= 1 << a.kind
		}
	}
	return m
}()

// has reports whether the opcode takes an operand of kind k.
func (o Op) has(k argKind) bool { return opKinds[o]&(1<<k) != 0 }

// String returns the opcode mnemonic.
func (o Op) String() string {
	if o < opCount {
		return opDefs[o].name
	}
	return fmt.Sprintf("op%d", uint8(o))
}

// IsBranch reports whether the instruction is a conditional branch: one
// that compares registers and jumps to a label.
func (i Instr) IsBranch() bool {
	const branch = 1<<kindLabel | 1<<kindReg
	return opKinds[i.Op]&branch == branch
}
