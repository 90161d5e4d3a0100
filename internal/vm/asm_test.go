package vm

import (
	"strings"
	"testing"
)

func assembleRun(t *testing.T, src string, input []byte) *Machine {
	t.Helper()
	p, err := Assemble(src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	m := NewMachine()
	m.SetInput(input)
	if _, err := m.Run(p, nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return m
}

func TestAssembleArithmeticLoop(t *testing.T) {
	m := assembleRun(t, `
; sum 1..10
func main {
    movi r1, 0
    movi r2, 1
    movi r3, 11
loop:
    add  r1, r1, r2
    addi r2, r2, 1
    blt  r2, r3, loop
    halt
}
`, nil)
	if m.Regs[R1] != 55 {
		t.Errorf("sum = %d, want 55", m.Regs[R1])
	}
}

func TestAssembleDataAndSymbols(t *testing.T) {
	m := assembleRun(t, `
.data greeting "hi!"
.data raw 01 02 ff
.reserve buf 64
func main {
    movi  r1, greeting
    load1 r2, r1, 0     ; 'h'
    movi  r3, raw
    load1 r4, r3, 2     ; 0xff
    movi  r5, buf
    movi  r6, 'Z'
    store1 r5, 0, r6
    load1 r7, r5, 0
    halt
}
`, nil)
	if m.Regs[R2] != 'h' {
		t.Errorf("string data: got %d", m.Regs[R2])
	}
	if m.Regs[R4] != 0xFF {
		t.Errorf("hex data: got %d", m.Regs[R4])
	}
	if m.Regs[R7] != 'Z' {
		t.Errorf("reserve roundtrip: got %d", m.Regs[R7])
	}
}

func TestAssembleCallsAndEntry(t *testing.T) {
	m := assembleRun(t, `
.entry start
func double {
    add r0, r1, r1
    ret
}
func start {
    movi r1, 21
    call double
    halt
}
`, nil)
	if m.Regs[R0] != 42 {
		t.Errorf("call: got %d", m.Regs[R0])
	}
}

func TestAssembleFloats(t *testing.T) {
	m := assembleRun(t, `
.reserve buf 16
func main {
    fmovi f1, 2.5
    fmovi f2, 1.5
    fadd  f3, f1, f2
    fsqrt f4, f3
    movi  r1, buf
    fstore r1, 0, f3
    fload  f5, r1, 0
    fcmp  r2, f1, f2
    ftoi  r3, f3
    itof  f6, r3
    halt
}
`, nil)
	if m.FRegs[F3] != 4.0 || m.FRegs[F4] != 2.0 || m.FRegs[F5] != 4.0 {
		t.Errorf("fp: %v %v %v", m.FRegs[F3], m.FRegs[F4], m.FRegs[F5])
	}
	if m.Regs[R2] != 1 || m.Regs[R3] != 4 || m.FRegs[F6] != 4.0 {
		t.Errorf("fp conversions: %d %d %v", m.Regs[R2], m.Regs[R3], m.FRegs[F6])
	}
}

func TestAssembleSyscalls(t *testing.T) {
	m := assembleRun(t, `
.reserve buf 32
func main {
    movi r1, buf
    movi r2, 4
    sys  read
    mov  r10, r0
    movi r2, 2
    sys  write
    sys  rand
    sys  time
    halt
}
`, []byte("abcd"))
	if m.Regs[R10] != 4 {
		t.Errorf("sys read: %d", m.Regs[R10])
	}
}

func TestAssembleSignedLoads(t *testing.T) {
	m := assembleRun(t, `
.data v ff
func main {
    movi   r1, v
    load1  r2, r1, 0
    loads1 r3, r1, 0
    halt
}
`, nil)
	if m.Regs[R2] != 0xFF || m.Regs[R3] != -1 {
		t.Errorf("loads: %d %d", m.Regs[R2], m.Regs[R3])
	}
}

func TestAssembleCharAndHexImmediates(t *testing.T) {
	m := assembleRun(t, `
func main {
    movi r1, 'A'
    movi r2, 0x10
    movi r3, -5
    halt
}
`, nil)
	if m.Regs[R1] != 'A' || m.Regs[R2] != 16 || m.Regs[R3] != -5 {
		t.Errorf("immediates: %d %d %d", m.Regs[R1], m.Regs[R2], m.Regs[R3])
	}
}

func TestAssembleForwardLabels(t *testing.T) {
	m := assembleRun(t, `
func main {
    movi r1, 1
    beq  r1, r1, skip
    movi r2, 99
skip:
    halt
}
`, nil)
	if m.Regs[R2] != 0 {
		t.Errorf("forward branch: R2=%d", m.Regs[R2])
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := map[string]string{
		"unknown mnemonic":     "func main {\n frobnicate r1\n halt\n}",
		"bad register":         "func main {\n movi r99, 1\n halt\n}",
		"instruction outside":  "movi r1, 1",
		"label outside":        "foo:",
		"stray brace":          "}",
		"nested func":          "func a {\nfunc b {\n halt\n}\n}",
		"unterminated":         "func main {\n halt\n",
		"bad operand count":    "func main {\n add r1, r2\n halt\n}",
		"bad directive":        ".bogus x",
		"bad data hex":         ".data x zz\nfunc main {\n halt\n}",
		"empty data":           ".data x\nfunc main {\n halt\n}",
		"bad reserve size":     ".reserve x banana\nfunc main {\n halt\n}",
		"bad syscall":          "func main {\n sys sleep\n halt\n}",
		"bad float":            "func main {\n fmovi f1, banana\n halt\n}",
		"undefined callee":     "func main {\n call nothing\n halt\n}",
		"unbound label":        "func main {\n br nowhere\n halt\n}",
		"bad load width":       "func main {\n load3 r1, r2, 0\n halt\n}",
		"bad immediate symbol": "func main {\n movi r1, nosuchsym\n halt\n}",
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Assemble(src); err == nil {
				t.Errorf("accepted %s", name)
			}
		})
	}
}

// TestAssembleRejectsBadReserve: a reserved region may neither reach the
// heap, where the first alloc would alias it, nor wrap past 2^64, where the
// next global would land inside it.
func TestAssembleRejectsBadReserve(t *testing.T) {
	cases := map[string]struct{ src, want string }{
		"reaches heap": {
			".reserve big 0x10000000\nfunc main {\n movi r1, 8\n alloc r2, r1\n halt\n}",
			`reserved region "big" (268435456 bytes at 0x10000) reaches the heap at 0x10000000`,
		},
		"wraps": {
			".reserve big 0xFFFFFFFFFFFFFFC0\n.data d \"x\"\nfunc main {\n movi r1, d\n load1 r2, r1, 0\n halt\n}",
			`reserved region "big" (18446744073709551552 bytes at 0x10000) wraps past the top of the address space`,
		},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := Assemble(c.src)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want it to say %q", err, c.want)
			}
		})
	}
}

func TestAssembleCommentsAndWhitespace(t *testing.T) {
	m := assembleRun(t, strings.Join([]string{
		"; leading comment",
		"# hash comment",
		"",
		"func main {",
		"   movi r1, 7   ; trailing",
		"   halt # other style",
		"}",
		"",
	}, "\n"), nil)
	if m.Regs[R1] != 7 {
		t.Errorf("R1 = %d", m.Regs[R1])
	}
}

func TestAssembleAllRRRMnemonics(t *testing.T) {
	src := `
func main {
    movi r1, 12
    movi r2, 5
    add  r3, r1, r2
    sub  r4, r1, r2
    mul  r5, r1, r2
    div  r6, r1, r2
    rem  r7, r1, r2
    and  r8, r1, r2
    or   r9, r1, r2
    xor  r10, r1, r2
    shl  r11, r1, r2
    shr  r12, r1, r2
    sar  r13, r1, r2
    slt  r14, r1, r2
    sltu r15, r1, r2
    seq  r16, r1, r2
    fmovi f1, 1.0
    fmovi f2, 2.0
    fsub f3, f1, f2
    fmul f4, f1, f2
    fdiv f5, f1, f2
    fmin f6, f1, f2
    fmax f7, f1, f2
    fneg f8, f1
    fabs f9, f8
    fmov f10, f9
    nop
    halt
}
`
	m := assembleRun(t, src, nil)
	if m.Regs[R3] != 17 || m.Regs[R7] != 2 || m.Regs[R11] != 12<<5 {
		t.Errorf("rrr results: %d %d %d", m.Regs[R3], m.Regs[R7], m.Regs[R11])
	}
	if m.FRegs[F9] != 1.0 {
		t.Errorf("fabs chain: %v", m.FRegs[F9])
	}
}
