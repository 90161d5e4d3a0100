package vm

// Observer is the instrumentation hook interface: the machine reduces the
// running program to a stream of primitives — function transitions, memory
// accesses, branches and syscalls — and drives an Observer with them. This
// is the boundary that plays the role Valgrind's translation layer plays for
// Sigil. Arithmetic operations are the one primitive without a callback:
// the machine tallies them per class, and observers read Machine.OpCounts
// at the call boundaries where they attribute costs.
//
// A nil Observer ("native run") skips all instrumentation dispatch, which is
// what the paper's native-vs-instrumented slowdown figures compare against.
type Observer interface {
	// ProgramStart is called once before the first instruction, with the
	// program and the machine (whose InstrCount serves as the
	// platform-independent time source).
	ProgramStart(p *Program, m *Machine)

	// FnEnter is called after control transfers into function fn via a
	// call (or program entry).
	FnEnter(fn int)

	// FnLeave is called when function fn returns, before control resumes
	// in its caller.
	FnLeave(fn int)

	// Branch is called for every retired conditional branch. site
	// uniquely identifies the static branch instruction.
	Branch(site uint64, taken bool)

	// MemRead is called for every data load at the given address and size.
	MemRead(addr uint64, size uint8)

	// MemWrite is called for every data store.
	MemWrite(addr uint64, size uint8)

	// Syscall is called for every syscall. Kernel-side behaviour is not
	// visible (matching Valgrind); only the name and the byte ranges the
	// call consumed from (inAddr/inLen) and produced into
	// (outAddr/outLen) program memory are reported.
	Syscall(sys Sys, inAddr, inLen, outAddr, outLen uint64)

	// ProgramEnd is called once after the program halts.
	ProgramEnd()
}

// BaseObserver is a no-op Observer intended for embedding, so tools only
// implement the callbacks they care about.
type BaseObserver struct{}

// ProgramStart implements Observer.
func (BaseObserver) ProgramStart(*Program, *Machine) {}

// FnEnter implements Observer.
func (BaseObserver) FnEnter(int) {}

// FnLeave implements Observer.
func (BaseObserver) FnLeave(int) {}

// Branch implements Observer.
func (BaseObserver) Branch(uint64, bool) {}

// MemRead implements Observer.
func (BaseObserver) MemRead(uint64, uint8) {}

// MemWrite implements Observer.
func (BaseObserver) MemWrite(uint64, uint8) {}

// Syscall implements Observer.
func (BaseObserver) Syscall(Sys, uint64, uint64, uint64, uint64) {}

// ProgramEnd implements Observer.
func (BaseObserver) ProgramEnd() {}

var _ Observer = BaseObserver{}
