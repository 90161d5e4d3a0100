package vm

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strings"
)

// Disassemble renders an instruction in the assembler's syntax, resolving
// branch targets to pc-relative labels and call targets to function names
// when a program is provided (p may be nil).
func (in Instr) Disassemble(p *Program) string {
	if in.Op >= opCount {
		return fmt.Sprintf("?%d", uint8(in.Op))
	}
	d := &opDefs[in.Op]
	var sb strings.Builder
	sb.WriteString(d.name)
	if d.sized {
		fmt.Fprintf(&sb, "%d", in.Size)
	}
	for i, a := range d.args {
		if i == 0 {
			sb.WriteByte(' ')
		} else {
			sb.WriteString(", ")
		}
		switch a.kind {
		case kindReg:
			fmt.Fprintf(&sb, "r%d", *in.reg(a.field))
		case kindFReg:
			fmt.Fprintf(&sb, "f%d", *in.reg(a.field))
		case kindImm:
			fmt.Fprintf(&sb, "%d", in.Imm)
		case kindFImm:
			fmt.Fprintf(&sb, "%v", math.Float64frombits(uint64(in.Imm)))
		case kindLabel:
			fmt.Fprintf(&sb, "L%d", in.Target)
		case kindCallee:
			if p != nil {
				sb.WriteString(p.FuncName(int(in.Target)))
			} else {
				fmt.Fprintf(&sb, "#%d", in.Target)
			}
		case kindSys:
			sb.WriteString(Sys(in.Imm).Name())
		}
	}
	return sb.String()
}

// WriteListing renders the whole program as annotated assembler text: data
// segments, then every function with labels at branch targets.
func (p *Program) WriteListing(w io.Writer) error {
	bw := bufio.NewWriter(w)
	pr := func(format string, args ...any) {
		fmt.Fprintf(bw, format+"\n", args...)
	}
	pr("; %d functions, %d instructions, entry %s",
		len(p.Funcs), p.NumInstrs(), p.FuncName(p.Entry))
	for _, s := range p.Segments {
		pr(".data %s  ; %d bytes at %#x", s.Name, len(s.Data), s.Addr)
	}
	for _, fn := range p.Funcs {
		pr("")
		pr("func %s {", fn.Name)
		// Collect branch targets for labels.
		targets := map[int32]bool{}
		for _, in := range fn.Code {
			if in.Op.has(kindLabel) {
				targets[in.Target] = true
			}
		}
		for pc, in := range fn.Code {
			if targets[int32(pc)] {
				pr("L%d:", pc)
			}
			pr("    %-30s ; +%d", in.Disassemble(p), pc)
		}
		pr("}")
	}
	return bw.Flush()
}

// String renders a one-line instruction (without program context).
func (in Instr) String() string {
	return strings.TrimSpace(in.Disassemble(nil))
}
