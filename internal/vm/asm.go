package vm

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Assemble parses a textual virtual-ISA program. The syntax:
//
//	; comment (also #)
//	.entry main          ; entry function (default "main")
//	.data name "text"    ; initialized segment from a quoted string
//	.data name 01 ff 7e  ; initialized segment from hex bytes
//	.reserve name 4096   ; uninitialized region, returns its address
//
//	func main {
//	    movi  r1, 100
//	    movi  r2, name   ; segment symbols are immediates
//	loop:
//	    addi  r1, r1, -1
//	    bne   r1, r0, loop
//	    load4 r3, r2, 8  ; rd, base, offset (1/2/4/8-byte widths)
//	    store4 r2, 8, r3 ; base, offset, src
//	    fmovi f1, 2.5
//	    call  helper
//	    sys   write      ; read | write | rand | time
//	    halt
//	}
//
// Mnemonics and operands are the ones opDefs declares (isa.go): the
// builder's method names lowercased, with loads and stores carrying their
// width as a suffix (load1..load8, loads1..loads8, store1..store8, fload,
// fstore).
func Assemble(src string) (*Program, error) {
	a := &assembler{b: NewBuilder(), syms: map[string]uint64{}}
	lines := strings.Split(src, "\n")
	for i, raw := range lines {
		if err := a.line(raw); err != nil {
			return nil, fmt.Errorf("vm: asm line %d: %w", i+1, err)
		}
	}
	if a.cur != nil {
		return nil, fmt.Errorf("vm: asm: unterminated function %q", a.cur.Name())
	}
	return a.b.Build()
}

type assembler struct {
	b      *Builder
	cur    *FuncBuilder
	labels map[string]Label
	syms   map[string]uint64 // data/reserve symbols
}

func (a *assembler) line(raw string) error {
	line := raw
	if i := strings.IndexAny(line, ";#"); i >= 0 {
		line = line[:i]
	}
	line = strings.TrimSpace(line)
	if line == "" {
		return nil
	}

	switch {
	case strings.HasPrefix(line, "."):
		return a.directive(line)
	case strings.HasPrefix(line, "func "):
		if a.cur != nil {
			return fmt.Errorf("nested function")
		}
		name := strings.TrimSpace(strings.TrimSuffix(strings.TrimPrefix(line, "func "), "{"))
		if name == "" {
			return fmt.Errorf("function needs a name")
		}
		a.cur = a.b.Func(name)
		a.labels = map[string]Label{}
		return nil
	case line == "}":
		if a.cur == nil {
			return fmt.Errorf("stray closing brace")
		}
		a.cur = nil
		return nil
	case strings.HasSuffix(line, ":"):
		if a.cur == nil {
			return fmt.Errorf("label outside function")
		}
		name := strings.TrimSuffix(line, ":")
		a.cur.Bind(a.label(name))
		return nil
	default:
		if a.cur == nil {
			return fmt.Errorf("instruction outside function")
		}
		// Inline label: "name: instr ..." binds the label and
		// continues with the instruction.
		if i := strings.Index(line, ":"); i > 0 && isIdent(line[:i]) {
			a.cur.Bind(a.label(line[:i]))
			line = strings.TrimSpace(line[i+1:])
			if line == "" {
				return nil
			}
		}
		return a.instr(line)
	}
}

func (a *assembler) directive(line string) error {
	fields := strings.Fields(line)
	switch fields[0] {
	case ".entry":
		if len(fields) != 2 {
			return fmt.Errorf(".entry needs a function name")
		}
		a.b.SetEntry(fields[1])
		return nil
	case ".reserve":
		if len(fields) != 3 {
			return fmt.Errorf(".reserve needs name and size")
		}
		size, err := strconv.ParseUint(fields[2], 0, 64)
		if err != nil {
			return fmt.Errorf("bad size %q: %v", fields[2], err)
		}
		a.syms[fields[1]] = a.b.Reserve(fields[1], size)
		return nil
	case ".data":
		if len(fields) < 3 {
			return fmt.Errorf(".data needs name and contents")
		}
		rest := strings.TrimSpace(line[len(fields[0]):]) // after ".data"
		rest = strings.TrimSpace(rest[len(fields[1]):])  // after the name
		var data []byte
		if strings.HasPrefix(rest, `"`) {
			s, err := strconv.Unquote(rest)
			if err != nil {
				return fmt.Errorf("bad string literal: %v", err)
			}
			data = []byte(s)
		} else {
			for _, h := range strings.Fields(rest) {
				v, err := strconv.ParseUint(h, 16, 8)
				if err != nil {
					return fmt.Errorf("bad hex byte %q: %v", h, err)
				}
				data = append(data, byte(v))
			}
		}
		if len(data) == 0 {
			return fmt.Errorf(".data %s is empty", fields[1])
		}
		a.syms[fields[1]] = a.b.Data(fields[1], data)
		return nil
	}
	return fmt.Errorf("unknown directive %q", fields[0])
}

func (a *assembler) label(name string) Label {
	if l, ok := a.labels[name]; ok {
		return l
	}
	l := a.cur.NewLabel()
	a.labels[name] = l
	return l
}

// operand parsing ------------------------------------------------------

// parseReg parses a register of the integer file (r0..r31) or, with fp,
// of the floating-point file (f0..f15).
func parseReg(tok string, fp bool) (Reg, error) {
	prefix, n, file := "r", NumRegs, "integer"
	if fp {
		prefix, n, file = "f", NumFRegs, "fp"
	}
	if len(tok) >= 2 && strings.EqualFold(tok[:1], prefix) {
		v, err := strconv.Atoi(tok[1:])
		if err == nil && v >= 0 && v < n {
			return Reg(v), nil
		}
	}
	return 0, fmt.Errorf("bad %s register %q", file, tok)
}

func (a *assembler) parseImm(tok string) (int64, error) {
	if addr, ok := a.syms[tok]; ok {
		return int64(addr), nil
	}
	if len(tok) >= 3 && tok[0] == '\'' && tok[len(tok)-1] == '\'' {
		s, err := strconv.Unquote(tok)
		if err != nil || len(s) != 1 {
			return 0, fmt.Errorf("bad char literal %q", tok)
		}
		return int64(s[0]), nil
	}
	v, err := strconv.ParseInt(tok, 0, 64)
	if err != nil {
		// Permit full-range unsigned (addresses).
		u, uerr := strconv.ParseUint(tok, 0, 64)
		if uerr != nil {
			return 0, fmt.Errorf("bad immediate %q", tok)
		}
		return int64(u), nil
	}
	return v, nil
}

func parseFImm(tok string) (int64, error) {
	v, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		return 0, fmt.Errorf("bad float immediate %q", tok)
	}
	return int64(math.Float64bits(v)), nil
}

func parseSys(tok string) (int64, error) {
	for s, name := range sysNames {
		if strings.EqualFold(tok, name) {
			return int64(s), nil
		}
	}
	return 0, fmt.Errorf("unknown syscall %q", tok)
}

// instr assembles one instruction line: its mnemonic names the opcode, and
// opDefs says what each operand is and which field it fills.
func (a *assembler) instr(line string) error {
	mnem, rest, _ := strings.Cut(line, " ")
	mnem = strings.ToLower(strings.TrimSpace(mnem))
	in, ok := mnemonics[mnem]
	if !ok {
		return fmt.Errorf("unknown mnemonic %q", mnem)
	}
	var toks []string
	for _, o := range strings.Split(rest, ",") {
		if o = strings.TrimSpace(o); o != "" {
			toks = append(toks, o)
		}
	}
	args := opDefs[in.Op].args
	if len(toks) != len(args) {
		return fmt.Errorf("%s needs %d operands, got %d", mnem, len(args), len(toks))
	}
	for i, arg := range args {
		var err error
		switch tok := toks[i]; arg.kind {
		case kindReg, kindFReg:
			*in.reg(arg.field), err = parseReg(tok, arg.kind == kindFReg)
		case kindImm:
			in.Imm, err = a.parseImm(tok)
		case kindFImm:
			in.Imm, err = parseFImm(tok)
		case kindLabel:
			in.Target = a.cur.target(a.label(tok))
		case kindCallee:
			in.Target = a.cur.callee(tok)
		case kindSys:
			in.Imm, err = parseSys(tok)
		}
		if err != nil {
			return err
		}
	}
	a.cur.emit(in)
	return nil
}

// isIdent reports whether s is a plausible label name (letters, digits,
// underscores and dots, not starting with a digit).
func isIdent(s string) bool {
	if s == "" || (s[0] >= '0' && s[0] <= '9') {
		return false
	}
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c >= '0' && c <= '9', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}
