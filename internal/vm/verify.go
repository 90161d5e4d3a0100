package vm

import (
	"fmt"
	"slices"
	"strings"
)

// This file implements the static program verifier. Validate (program.go)
// checks shallow structural invariants instruction by instruction; Verify
// builds a control-flow graph per function and checks path-sensitive
// properties, so malformed programs fail at build time with a typed
// diagnostic instead of an interpreter fault mid-run:
//
//   - DiagTarget: a branch or call target out of range (also caught by
//     Validate; re-checked here so Verify is safe on unvalidated programs).
//   - DiagFallOff: some path reaches the end of a function body without a
//     ret or halt — the interpreter would fault with pc out of range.
//   - DiagUnreachable: an instruction no path from the function entry can
//     execute, which in generated code always means a miswired label.
//   - DiagNoReturn: a function with no reachable ret or halt can never
//     terminate; since the machine pairs every call with exactly one
//     return, an unreturnable callee breaks call/return pairing for every
//     caller on the stack.
//   - DiagMemory: a memory operand whose address is provably constant and
//     provably outside every declared segment, reserved region, and the
//     heap/stack spaces. Found by constant propagation along the CFG; an
//     address that is merely unknown is never flagged.
//   - DiagSpawn: reserved for spawn/join pairing once the parallel-phase
//     ISA lands (ROADMAP item 1); never emitted today.
type DiagClass uint8

// Diagnostic classes, one per malformed-program family.
const (
	DiagTarget DiagClass = iota
	DiagFallOff
	DiagUnreachable
	DiagNoReturn
	DiagMemory
	DiagSpawn
)

var diagClassNames = [...]string{
	DiagTarget:      "target",
	DiagFallOff:     "fall-off",
	DiagUnreachable: "unreachable",
	DiagNoReturn:    "no-return",
	DiagMemory:      "memory",
	DiagSpawn:       "spawn",
}

// String returns the class's short name.
func (c DiagClass) String() string {
	if int(c) < len(diagClassNames) {
		return diagClassNames[c]
	}
	return fmt.Sprintf("diag%d", uint8(c))
}

// Diag is one verifier finding, locating a malformed instruction (or
// function, when PC is -1) and classifying what is wrong with it.
type Diag struct {
	Class   DiagClass
	Func    string
	PC      int // instruction index, or -1 for a whole-function finding
	Op      Op
	Message string
}

// String renders the diagnostic as "class: func+pc (op): message".
func (d Diag) String() string {
	where := d.Func
	if d.PC >= 0 {
		where = fmt.Sprintf("%s+%d (%s)", d.Func, d.PC, d.Op)
	}
	return fmt.Sprintf("%s: %s: %s", d.Class, where, d.Message)
}

// VerifyError is the typed error returned when verification fails. It
// carries every finding, not just the first, so tooling can report the
// complete picture in one pass.
type VerifyError struct {
	Diags []Diag
}

// Error renders the first diagnostic plus a count of the rest.
func (e *VerifyError) Error() string {
	if len(e.Diags) == 0 {
		return "vm: verify failed"
	}
	msg := "vm: verify: " + e.Diags[0].String()
	if n := len(e.Diags) - 1; n > 0 {
		msg += fmt.Sprintf(" (and %d more)", n)
	}
	return msg
}

// Render writes every diagnostic, one per line.
func (e *VerifyError) Render() string {
	var sb strings.Builder
	for _, d := range e.Diags {
		sb.WriteString(d.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Verify statically checks the program and returns nil or a *VerifyError
// listing every finding. Build runs it automatically after Validate; the
// exported entry point exists so tools can verify programs they did not
// build themselves (sigil-lint -vm).
func (p *Program) Verify() error {
	var diags []Diag
	for _, f := range p.Funcs {
		diags = append(diags, p.verifyFunc(f)...)
	}
	if len(diags) == 0 {
		return nil
	}
	return &VerifyError{Diags: diags}
}

// succs returns the control successors of the instruction at pc; none for
// a target out of range (structurally broken, reported separately).
func succs(f *Function, pc int, in Instr) []int {
	switch in.Op {
	case OpRet, OpHalt:
		return nil
	}
	switch {
	case !in.Op.has(kindLabel):
		return []int{pc + 1}
	case uint(in.Target) >= uint(len(f.Code)):
		return nil
	case in.IsBranch():
		return []int{pc + 1, int(in.Target)}
	}
	return []int{int(in.Target)}
}

func (p *Program) verifyFunc(f *Function) []Diag {
	var diags []Diag
	bad := func(class DiagClass, pc int, format string, args ...any) {
		d := Diag{Class: class, Func: f.Name, PC: pc, Message: fmt.Sprintf(format, args...)}
		if pc >= 0 && pc < len(f.Code) {
			d.Op = f.Code[pc].Op
		}
		diags = append(diags, d)
	}

	// Structural pre-pass: targets must be in range before any CFG walk.
	broken := false
	for pc, in := range f.Code {
		switch {
		case in.Op.has(kindLabel):
			if int(in.Target) < 0 || int(in.Target) >= len(f.Code) {
				bad(DiagTarget, pc, "branch target %d out of range [0,%d)", in.Target, len(f.Code))
				broken = true
			}
		case in.Op.has(kindCallee):
			if int(in.Target) < 0 || int(in.Target) >= len(p.Funcs) {
				bad(DiagTarget, pc, "call target %d out of range [0,%d)", in.Target, len(p.Funcs))
				broken = true
			}
		}
	}
	if broken || len(f.Code) == 0 {
		return diags
	}

	// Reachability from the function entry.
	reach := make([]bool, len(f.Code))
	stack := []int{0}
	reach[0] = true
	terminates := false
	for len(stack) > 0 {
		pc := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		in := f.Code[pc]
		if in.Op == OpRet || in.Op == OpHalt {
			terminates = true
		}
		for _, n := range succs(f, pc, in) {
			if n >= len(f.Code) {
				bad(DiagFallOff, pc, "execution can fall off the end of the function")
				continue
			}
			if !reach[n] {
				reach[n] = true
				stack = append(stack, n)
			}
		}
	}
	for pc := range f.Code {
		if !reach[pc] {
			bad(DiagUnreachable, pc, "instruction is unreachable")
		}
	}
	if !terminates {
		bad(DiagNoReturn, -1, "no reachable ret or halt; the function cannot return to its caller")
	}

	diags = append(diags, p.verifyMemory(f, reach)...)
	return diags
}

// regState is the constant-propagation lattice for one integer register:
// either a known constant or unknown (top).
type regState struct {
	known bool
	val   int64
}

func merge(a, b regState) regState {
	if a.known && b.known && a.val == b.val {
		return a
	}
	return regState{}
}

// verifyMemory runs forward constant propagation over the reachable part of
// the function and flags loads/stores whose effective address is provably
// outside every declared region. The entry function starts from the
// machine's zeroed register file; other functions inherit their caller's
// registers and start fully unknown. A call preserves all registers except
// the return registers (the machine snapshots and restores the file), so
// only R0 is clobbered across calls.
func (p *Program) verifyMemory(f *Function, reach []bool) []Diag {
	var diags []Diag
	isEntry := p.Funcs[p.Entry] == f

	in := make([][NumRegs]regState, len(f.Code))
	seeded := make([]bool, len(f.Code))
	if isEntry {
		var zero [NumRegs]regState
		for r := range zero {
			zero[r] = regState{known: true, val: 0}
		}
		in[0] = zero
	}
	seeded[0] = true

	work := []int{0}
	onWork := make([]bool, len(f.Code))
	onWork[0] = true
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		onWork[pc] = false
		instr := f.Code[pc]
		out := transfer(in[pc], instr)
		for _, n := range succs(f, pc, instr) {
			if n >= len(f.Code) {
				continue // fall-off already reported
			}
			if !seeded[n] {
				in[n] = out
				seeded[n] = true
			} else {
				changed := false
				for r := range in[n] {
					m := merge(in[n][r], out[r])
					if m != in[n][r] {
						in[n][r] = m
						changed = true
					}
				}
				if !changed {
					continue
				}
			}
			if !onWork[n] {
				work = append(work, n)
				onWork[n] = true
			}
		}
	}

	for pc, instr := range f.Code {
		if !reach[pc] || !instr.Op.def().mem {
			continue
		}
		base := in[pc][instr.Ra]
		if !base.known {
			continue
		}
		addr := uint64(base.val + instr.Imm)
		size := uint64(instr.Size)
		if !p.addressDeclared(addr, size) {
			diags = append(diags, Diag{
				Class: DiagMemory, Func: f.Name, PC: pc, Op: instr.Op,
				Message: fmt.Sprintf("memory operand 0x%x (+%d bytes) outside declared segments, reserved regions, heap and stack", addr, size),
			})
		}
	}
	return diags
}

// addressDeclared reports whether [addr, addr+size) lies inside a declared
// segment, a reserved region, or the open heap/stack spaces above HeapBase.
func (p *Program) addressDeclared(addr, size uint64) bool {
	if addr >= HeapBase {
		return true // heap and stack scratch are open-ended
	}
	end := addr + size
	for _, s := range p.Segments {
		if addr >= s.Addr && end <= s.Addr+uint64(len(s.Data)) {
			return true
		}
	}
	for _, r := range p.Reserved {
		if addr >= r.Addr && end <= r.Addr+r.Size {
			return true
		}
	}
	return false
}

// transfer applies one instruction to the register lattice.
func transfer(in [NumRegs]regState, instr Instr) [NumRegs]regState {
	out := in
	setUnknown := func(r Reg) { out[r] = regState{} }
	setConst := func(r Reg, v int64) { out[r] = regState{known: true, val: v} }

	switch instr.Op {
	case OpMovi:
		setConst(instr.Rd, instr.Imm)
	case OpMov:
		out[instr.Rd] = in[instr.Ra]
	case OpAddi:
		if a := in[instr.Ra]; a.known {
			setConst(instr.Rd, a.val+instr.Imm)
		} else {
			setUnknown(instr.Rd)
		}
	case OpMuli:
		if a := in[instr.Ra]; a.known {
			setConst(instr.Rd, a.val*instr.Imm)
		} else {
			setUnknown(instr.Rd)
		}
	case OpAdd, OpSub, OpMul:
		a, b := in[instr.Ra], in[instr.Rb]
		if a.known && b.known {
			switch instr.Op {
			case OpAdd:
				setConst(instr.Rd, a.val+b.val)
			case OpSub:
				setConst(instr.Rd, a.val-b.val)
			case OpMul:
				setConst(instr.Rd, a.val*b.val)
			}
		} else {
			setUnknown(instr.Rd)
		}
	case OpShli:
		if a := in[instr.Ra]; a.known && instr.Imm >= 0 && instr.Imm < 64 {
			setConst(instr.Rd, a.val<<uint(instr.Imm))
		} else {
			setUnknown(instr.Rd)
		}
	case OpCall:
		// The machine restores the caller's register file after the call;
		// only the integer return register escapes.
		setUnknown(R0)
	case OpSys:
		setUnknown(R0)
	default:
		// Every opcode naming an integer Rd writes it; FP ops, stores,
		// branches and nop write no integer register.
		if slices.Contains(instr.Op.def().args, argRd) {
			setUnknown(instr.Rd)
		}
	}
	return out
}
