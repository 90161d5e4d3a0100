package vm

import (
	"context"
	"fmt"
	"math"
)

// Machine executes a Program, optionally driving an Observer with the
// instruction-level primitive stream. One Machine runs one program to
// completion; create a fresh Machine per run.
type Machine struct {
	// Regs and FRegs are the architectural register files; exported so
	// tests and host integrations can inspect final state.
	Regs  [NumRegs]int64
	FRegs [NumFRegs]float64

	// Mem is the program's address space.
	Mem *Memory

	// MaxInstrs aborts the run after this many retired instructions
	// (0 means the DefaultMaxInstrs safety net).
	MaxInstrs uint64

	// MaxCallDepth aborts runaway recursion (0 means DefaultMaxCallDepth).
	MaxCallDepth int

	// StopCheck, when non-nil, is polled every StopCheckInterval retired
	// instructions; a non-nil return aborts the run with that error while
	// keeping the state collected so far (observers still see ProgramEnd).
	// Callers use it to enforce resource budgets the machine itself does
	// not know about.
	StopCheck func() error

	instret uint64
	heap    uint64
	rng     uint64

	// classOps tallies retired instructions per OpClass on instrumented
	// runs; OpCounts folds it into the integer and floating-point totals.
	classOps [ClassConv + 1]uint64

	input    []byte
	inputPos int
	outBytes uint64

	frames []frame
}

type frame struct {
	regs  [NumRegs]int64
	fregs [NumFRegs]float64
	fn    int32
	pc    int32
}

// Run limits that keep buggy programs from hanging the host.
const (
	DefaultMaxInstrs    = 2_000_000_000
	DefaultMaxCallDepth = 1 << 14
)

// StopCheckInterval is the cancellation/budget polling cadence in retired
// instructions: frequent enough that a cancelled run stops well inside
// 100ms, rare enough to stay invisible in the dispatch loop.
const StopCheckInterval = 1 << 14

// CancelError reports a run stopped cooperatively because its context was
// done. It wraps the context's error, so errors.Is(err, context.Canceled)
// and errors.Is(err, context.DeadlineExceeded) both see through it.
type CancelError struct {
	Instrs uint64 // instructions retired when the run stopped
	Cause  error  // the context's error
}

func (e *CancelError) Error() string {
	return fmt.Sprintf("vm: run cancelled after %d instructions: %v", e.Instrs, e.Cause)
}

// Unwrap exposes the context error.
func (e *CancelError) Unwrap() error { return e.Cause }

// NewMachine returns a machine with fresh memory and a deterministic RNG.
func NewMachine() *Machine {
	return &Machine{Mem: NewMemory(), rng: 0x9E3779B97F4A7C15}
}

// SetInput provides the byte stream consumed by SysRead.
func (m *Machine) SetInput(b []byte) { m.input = b }

// InstrCount returns the number of retired instructions so far — the
// platform-independent time proxy used throughout the methodology.
func (m *Machine) InstrCount() uint64 { return m.instret }

// OpCounts returns the arithmetic operations retired so far: integer
// operations (int<->fp conversions included) and floating-point ones. The
// machine tallies them only when an Observer is attached, so tools read
// them at call boundaries instead of taking a callback per instruction.
func (m *Machine) OpCounts() (intOps, fpOps uint64) {
	c := &m.classOps
	return c[ClassIntALU] + c[ClassIntMul] + c[ClassIntDiv] + c[ClassConv],
		c[ClassFPAdd] + c[ClassFPMul] + c[ClassFPDiv]
}

// OutputBytes returns the total bytes consumed by SysWrite.
func (m *Machine) OutputBytes() uint64 { return m.outBytes }

// HeapUsed returns the number of heap bytes bump-allocated by OpAlloc.
func (m *Machine) HeapUsed() uint64 { return m.heap - HeapBase }

// CallDepth returns the live call-stack depth. It is a telemetry gauge:
// sampled at the StopCheck poll point it distinguishes a run grinding in a
// hot loop from one descending into deep recursion.
func (m *Machine) CallDepth() int { return len(m.frames) }

// RunStats summarizes a completed run.
type RunStats struct {
	Instrs      uint64 // retired instructions
	OutputBytes uint64 // bytes written via SysWrite
	HeapBytes   uint64 // bytes bump-allocated
	MemPages    int    // memory pages materialized
}

// Run executes the program to completion, driving obs (which may be nil for
// an uninstrumented "native" run) with the primitive stream.
func (m *Machine) Run(p *Program, obs Observer) (RunStats, error) {
	return m.RunContext(context.Background(), p, obs)
}

// RunContext is Run with cooperative cancellation: the machine polls ctx
// (and StopCheck, if set) every StopCheckInterval retired instructions and
// stops with a *CancelError when the context is done. Observers still
// receive ProgramEnd on early stops, so partially collected profiles stay
// internally consistent, and the returned stats describe the work actually
// performed.
func (m *Machine) RunContext(ctx context.Context, p *Program, obs Observer) (RunStats, error) {
	if err := p.Validate(); err != nil {
		return RunStats{}, err
	}
	if p.index == nil {
		p.buildIndex()
	}
	m.heap = HeapBase
	m.instret = 0
	clear(m.classOps[:])
	m.inputPos = 0
	m.outBytes = 0
	m.frames = m.frames[:0]
	for _, s := range p.Segments {
		m.Mem.WriteBytes(s.Addr, s.Data)
	}
	maxInstrs := m.MaxInstrs
	if maxInstrs == 0 {
		maxInstrs = DefaultMaxInstrs
	}
	maxDepth := m.MaxCallDepth
	if maxDepth == 0 {
		maxDepth = DefaultMaxCallDepth
	}

	if obs != nil {
		obs.ProgramStart(p, m)
		obs.FnEnter(p.Entry)
	}
	err := m.loop(ctx, p, obs, maxInstrs, maxDepth)
	if obs != nil {
		obs.ProgramEnd()
	}
	stats := RunStats{
		Instrs:      m.instret,
		OutputBytes: m.outBytes,
		HeapBytes:   m.heap - HeapBase,
		MemPages:    m.Mem.PagesAllocated(),
	}
	return stats, err
}

func (m *Machine) loop(ctx context.Context, p *Program, obs Observer, maxInstrs uint64, maxDepth int) error {
	fn := int32(p.Entry)
	code := p.Funcs[fn].Code
	pc := int32(0)

	fault := func(format string, args ...any) error {
		return fmt.Errorf("vm: %s+%d: %s", p.FuncName(int(fn)), pc, fmt.Sprintf(format, args...))
	}

	done := ctx.Done()
	poll := done != nil || m.StopCheck != nil

	for {
		if int(pc) >= len(code) {
			return fault("fell off end of function")
		}
		in := &code[pc]
		m.instret++
		if m.instret > maxInstrs {
			return fault("instruction budget of %d exhausted", maxInstrs)
		}
		if poll && m.instret&(StopCheckInterval-1) == 0 {
			select {
			case <-done:
				return &CancelError{Instrs: m.instret, Cause: context.Cause(ctx)}
			default:
			}
			if m.StopCheck != nil {
				if err := m.StopCheck(); err != nil {
					return err
				}
			}
		}
		nextPC := pc + 1

		switch in.Op {
		case OpNop:

		case OpMovi:
			m.Regs[in.Rd] = in.Imm
		case OpMov:
			m.Regs[in.Rd] = m.Regs[in.Ra]
		case OpAdd:
			m.Regs[in.Rd] = m.Regs[in.Ra] + m.Regs[in.Rb]
		case OpSub:
			m.Regs[in.Rd] = m.Regs[in.Ra] - m.Regs[in.Rb]
		case OpMul:
			m.Regs[in.Rd] = m.Regs[in.Ra] * m.Regs[in.Rb]
		case OpDiv:
			if m.Regs[in.Rb] == 0 {
				return fault("integer divide by zero")
			}
			m.Regs[in.Rd] = m.Regs[in.Ra] / m.Regs[in.Rb]
		case OpRem:
			if m.Regs[in.Rb] == 0 {
				return fault("integer remainder by zero")
			}
			m.Regs[in.Rd] = m.Regs[in.Ra] % m.Regs[in.Rb]
		case OpAnd:
			m.Regs[in.Rd] = m.Regs[in.Ra] & m.Regs[in.Rb]
		case OpOr:
			m.Regs[in.Rd] = m.Regs[in.Ra] | m.Regs[in.Rb]
		case OpXor:
			m.Regs[in.Rd] = m.Regs[in.Ra] ^ m.Regs[in.Rb]
		case OpShl:
			m.Regs[in.Rd] = m.Regs[in.Ra] << (uint64(m.Regs[in.Rb]) & 63)
		case OpShr:
			m.Regs[in.Rd] = int64(uint64(m.Regs[in.Ra]) >> (uint64(m.Regs[in.Rb]) & 63))
		case OpSar:
			m.Regs[in.Rd] = m.Regs[in.Ra] >> (uint64(m.Regs[in.Rb]) & 63)
		case OpAddi:
			m.Regs[in.Rd] = m.Regs[in.Ra] + in.Imm
		case OpMuli:
			m.Regs[in.Rd] = m.Regs[in.Ra] * in.Imm
		case OpAndi:
			m.Regs[in.Rd] = m.Regs[in.Ra] & in.Imm
		case OpOri:
			m.Regs[in.Rd] = m.Regs[in.Ra] | in.Imm
		case OpXori:
			m.Regs[in.Rd] = m.Regs[in.Ra] ^ in.Imm
		case OpShli:
			m.Regs[in.Rd] = m.Regs[in.Ra] << (uint64(in.Imm) & 63)
		case OpShri:
			m.Regs[in.Rd] = int64(uint64(m.Regs[in.Ra]) >> (uint64(in.Imm) & 63))
		case OpSlt:
			m.Regs[in.Rd] = b2i(m.Regs[in.Ra] < m.Regs[in.Rb])
		case OpSltu:
			m.Regs[in.Rd] = b2i(uint64(m.Regs[in.Ra]) < uint64(m.Regs[in.Rb]))
		case OpSeq:
			m.Regs[in.Rd] = b2i(m.Regs[in.Ra] == m.Regs[in.Rb])

		case OpFMovi:
			m.FRegs[in.Rd] = math.Float64frombits(uint64(in.Imm))
		case OpFMov:
			m.FRegs[in.Rd] = m.FRegs[in.Ra]
		case OpFAdd:
			m.FRegs[in.Rd] = m.FRegs[in.Ra] + m.FRegs[in.Rb]
		case OpFSub:
			m.FRegs[in.Rd] = m.FRegs[in.Ra] - m.FRegs[in.Rb]
		case OpFMul:
			m.FRegs[in.Rd] = m.FRegs[in.Ra] * m.FRegs[in.Rb]
		case OpFDiv:
			m.FRegs[in.Rd] = m.FRegs[in.Ra] / m.FRegs[in.Rb]
		case OpFNeg:
			m.FRegs[in.Rd] = -m.FRegs[in.Ra]
		case OpFAbs:
			m.FRegs[in.Rd] = math.Abs(m.FRegs[in.Ra])
		case OpFSqrt:
			m.FRegs[in.Rd] = math.Sqrt(m.FRegs[in.Ra])
		case OpFMin:
			m.FRegs[in.Rd] = math.Min(m.FRegs[in.Ra], m.FRegs[in.Rb])
		case OpFMax:
			m.FRegs[in.Rd] = math.Max(m.FRegs[in.Ra], m.FRegs[in.Rb])
		case OpItoF:
			m.FRegs[in.Rd] = float64(m.Regs[in.Ra])
		case OpFtoI:
			m.Regs[in.Rd] = int64(m.FRegs[in.Ra])
		case OpFCmp:
			a, b := m.FRegs[in.Ra], m.FRegs[in.Rb]
			switch {
			case a < b:
				m.Regs[in.Rd] = -1
			case a > b:
				m.Regs[in.Rd] = 1
			default:
				m.Regs[in.Rd] = 0
			}

		case OpLoad, OpLoadS:
			addr := uint64(m.Regs[in.Ra] + in.Imm)
			v := m.Mem.Load(addr, in.Size)
			if in.Op == OpLoadS {
				v = signExtend(v, in.Size)
			}
			m.Regs[in.Rd] = int64(v)
			if obs != nil {
				obs.MemRead(addr, in.Size)
			}
		case OpStore:
			addr := uint64(m.Regs[in.Ra] + in.Imm)
			m.Mem.Store(addr, in.Size, uint64(m.Regs[in.Rb]))
			if obs != nil {
				obs.MemWrite(addr, in.Size)
			}
		case OpFLoad:
			addr := uint64(m.Regs[in.Ra] + in.Imm)
			m.FRegs[in.Rd] = math.Float64frombits(m.Mem.Load(addr, 8))
			if obs != nil {
				obs.MemRead(addr, 8)
			}
		case OpFStore:
			addr := uint64(m.Regs[in.Ra] + in.Imm)
			m.Mem.Store(addr, 8, math.Float64bits(m.FRegs[in.Rb]))
			if obs != nil {
				obs.MemWrite(addr, 8)
			}

		case OpBr:
			nextPC = in.Target
		case OpBeq, OpBne, OpBlt, OpBge, OpBltu, OpBgeu:
			taken := false
			a, b := m.Regs[in.Ra], m.Regs[in.Rb]
			switch in.Op {
			case OpBeq:
				taken = a == b
			case OpBne:
				taken = a != b
			case OpBlt:
				taken = a < b
			case OpBge:
				taken = a >= b
			case OpBltu:
				taken = uint64(a) < uint64(b)
			case OpBgeu:
				taken = uint64(a) >= uint64(b)
			}
			if taken {
				nextPC = in.Target
			}
			if obs != nil {
				obs.Branch(uint64(fn)<<20|uint64(uint32(pc)), taken)
			}

		case OpCall:
			if len(m.frames) >= maxDepth {
				return fault("call depth limit %d exceeded", maxDepth)
			}
			m.frames = append(m.frames, frame{
				regs:  m.Regs,
				fregs: m.FRegs,
				fn:    fn,
				pc:    nextPC,
			})
			fn = in.Target
			code = p.Funcs[fn].Code
			nextPC = 0
			if obs != nil {
				obs.FnEnter(int(fn))
			}

		case OpRet:
			if len(m.frames) == 0 {
				// Returning from the entry function terminates the
				// program, like returning from main.
				if obs != nil {
					obs.FnLeave(int(fn))
				}
				pc = nextPC
				return nil
			}
			if obs != nil {
				obs.FnLeave(int(fn))
			}
			fr := &m.frames[len(m.frames)-1]
			r0, f0 := m.Regs[R0], m.FRegs[F0]
			m.Regs = fr.regs
			m.FRegs = fr.fregs
			m.Regs[R0] = r0
			m.FRegs[F0] = f0
			fn = fr.fn
			nextPC = fr.pc
			code = p.Funcs[fn].Code
			m.frames = m.frames[:len(m.frames)-1]

		case OpHalt:
			if obs != nil {
				obs.FnLeave(int(fn))
			}
			return nil

		case OpAlloc:
			size := uint64(m.Regs[in.Ra])
			if size > 1<<32 {
				return fault("allocation of %d bytes too large", size)
			}
			m.Regs[in.Rd] = int64(m.heap)
			m.heap = align(m.heap+size, 8)

		case OpSys:
			m.syscall(Sys(in.Imm), obs)

		default:
			return fault("unimplemented opcode")
		}

		if obs != nil {
			m.classOps[classOf[in.Op]]++
		}
		pc = nextPC
	}
}

func (m *Machine) syscall(s Sys, obs Observer) {
	switch s {
	case SysRead:
		addr := uint64(m.Regs[R1])
		want := m.Regs[R2]
		if want < 0 {
			want = 0
		}
		avail := len(m.input) - m.inputPos
		n := int(want)
		if n > avail {
			n = avail
		}
		if n > 0 {
			m.Mem.WriteBytes(addr, m.input[m.inputPos:m.inputPos+n])
			m.inputPos += n
		}
		m.Regs[R0] = int64(n)
		if obs != nil {
			obs.Syscall(s, 0, 0, addr, uint64(n))
		}
	case SysWrite:
		addr := uint64(m.Regs[R1])
		n := m.Regs[R2]
		if n < 0 {
			n = 0
		}
		m.outBytes += uint64(n)
		m.Regs[R0] = n
		if obs != nil {
			obs.Syscall(s, addr, uint64(n), 0, 0)
		}
	case SysRand:
		// xorshift64*: deterministic, decent spread for workload use.
		x := m.rng
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		m.rng = x
		m.Regs[R0] = int64(x * 0x2545F4914F6CDD1D)
		if obs != nil {
			obs.Syscall(s, 0, 0, 0, 0)
		}
	case SysTime:
		m.Regs[R0] = int64(m.instret)
		if obs != nil {
			obs.Syscall(s, 0, 0, 0, 0)
		}
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func signExtend(v uint64, size uint8) uint64 {
	switch size {
	case 1:
		return uint64(int64(int8(v)))
	case 2:
		return uint64(int64(int16(v)))
	case 4:
		return uint64(int64(int32(v)))
	}
	return v
}
