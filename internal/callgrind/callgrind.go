// Package callgrind is the Callgrind-analogue substrate tool: it captures
// the calltree of a running program with per-calling-context cost centres
// (instruction counts, integer and floating-point operations, memory
// accesses, simulated cache misses and branch mispredictions) and estimates
// per-context software run time using Callgrind's cycle-estimation formula.
// The Sigil core hooks into this tool exactly the way the paper's Sigil
// hooks into Callgrind: to identify communicating contexts and to reuse the
// substrate's cost metrics.
package callgrind

import (
	"sigil/internal/branchsim"
	"sigil/internal/cachesim"
	"sigil/internal/vm"
)

// Costs is one context's self-cost centre.
type Costs struct {
	Instrs     uint64 // retired instructions
	IntOps     uint64 // integer arithmetic operations
	FPOps      uint64 // floating-point operations
	Reads      uint64 // data loads
	Writes     uint64 // data stores
	ReadBytes  uint64
	WriteBytes uint64
	L1Misses   uint64 // loads+stores missing L1
	LLMisses   uint64 // loads+stores missing the last level
	Branches   uint64
	Mispredict uint64
	SysIn      uint64 // bytes consumed by syscalls
	SysOut     uint64 // bytes produced by syscalls
}

// Add accumulates o into c.
func (c *Costs) Add(o Costs) {
	c.Instrs += o.Instrs
	c.IntOps += o.IntOps
	c.FPOps += o.FPOps
	c.Reads += o.Reads
	c.Writes += o.Writes
	c.ReadBytes += o.ReadBytes
	c.WriteBytes += o.WriteBytes
	c.L1Misses += o.L1Misses
	c.LLMisses += o.LLMisses
	c.Branches += o.Branches
	c.Mispredict += o.Mispredict
	c.SysIn += o.SysIn
	c.SysOut += o.SysOut
}

// Ops returns the total arithmetic operation count, the paper's
// platform-independent computation metric.
func (c Costs) Ops() uint64 { return c.IntOps + c.FPOps }

// CycleEstimate applies Callgrind's cycle-estimation formula
// (CEst = Ir + 10·Bm + 10·L1m + 100·LLm), which the paper's case studies use
// to estimate the software run time of a function on a general-purpose CPU.
func (c Costs) CycleEstimate() uint64 {
	return c.Instrs + 10*c.Mispredict + 10*c.L1Misses + 100*c.LLMisses
}

// Node is one calling context: a function reached through a distinct call
// path. Costs for the same function called from different parents are kept
// separate, matching the paper's "separate accounting of costs for functions
// called through different contexts".
type Node struct {
	ID       int
	Fn       int // function index in the program
	Name     string
	Parent   *Node
	Children []*Node
	Self     Costs
	Calls    uint64 // number of times this context was entered
}

// Child returns the child context for fn, or nil.
func (n *Node) Child(fn int) *Node {
	for _, c := range n.Children {
		if c.Fn == fn {
			return c
		}
	}
	return nil
}

// Path returns the call path "main/…/name" identifying the context.
func (n *Node) Path() string {
	if n.Parent == nil {
		return n.Name
	}
	return n.Parent.Path() + "/" + n.Name
}

// Options configures the substrate tool.
type Options struct {
	L1        cachesim.Config // zero value selects the default geometry
	LL        cachesim.Config
	BranchTab int // predictor table size; 0 selects the default
	// Gshare selects a global-history predictor instead of the default
	// bimodal one; GshareHistory sets its history length in bits.
	Gshare        bool
	GshareHistory uint
	// Prefetch enables the next-line prefetcher on L1 misses.
	Prefetch bool
	// MaxDepth bounds the context tree depth; deeper recursion folds
	// into the nearest ancestor context of the same function.
	MaxDepth int
}

func (o Options) withDefaults() Options {
	if o.L1 == (cachesim.Config{}) {
		o.L1 = cachesim.DefaultL1()
	}
	if o.LL == (cachesim.Config{}) {
		o.LL = cachesim.DefaultLL()
	}
	if o.MaxDepth == 0 {
		o.MaxDepth = 256
	}
	return o
}

// Tool is the substrate instrumentation tool. Create one per run.
type Tool struct {
	opts   Options
	prog   *vm.Program
	mach   *vm.Machine
	caches *cachesim.Hierarchy
	bp     branchsim.Recorder

	root  *Node
	nodes []*Node
	stack []stackEntry

	callCounter uint64
	// The machine's instruction and operation counts at the last
	// attribution point.
	lastMark, lastInt, lastFP uint64
	totalInstrs               uint64
}

type stackEntry struct {
	node *Node
	call uint64
}

var _ vm.Observer = (*Tool)(nil)

// New returns a fresh substrate tool, rejecting invalid cache geometry.
func New(opts Options) (*Tool, error) {
	opts = opts.withDefaults()
	var bp branchsim.Recorder
	if opts.Gshare {
		bp = branchsim.NewGshare(opts.BranchTab, opts.GshareHistory)
	} else {
		bp = branchsim.New(opts.BranchTab)
	}
	caches, err := cachesim.NewHierarchy(opts.L1, opts.LL)
	if err != nil {
		return nil, err
	}
	caches.Prefetch = opts.Prefetch
	return &Tool{
		opts:   opts,
		caches: caches,
		bp:     bp,
	}, nil
}

// ProgramStart implements dbi.Tool.
func (t *Tool) ProgramStart(p *vm.Program, m *vm.Machine) {
	t.prog = p
	t.mach = m
	t.lastMark, t.lastInt, t.lastFP = 0, 0, 0
}

// FnEnter implements dbi.Tool.
func (t *Tool) FnEnter(fn int) {
	t.attribute()
	var node *Node
	switch {
	case len(t.stack) == 0:
		if t.root == nil {
			t.root = t.newNode(fn, nil)
		}
		node = t.root
	default:
		parent := t.stack[len(t.stack)-1].node
		if len(t.stack) >= t.opts.MaxDepth {
			// Deep recursion: fold into the nearest ancestor context
			// executing the same function, keeping the tree bounded.
			for i := len(t.stack) - 1; i >= 0; i-- {
				if t.stack[i].node.Fn == fn {
					node = t.stack[i].node
					break
				}
			}
		}
		if node == nil {
			node = parent.Child(fn)
			if node == nil {
				node = t.newNode(fn, parent)
				parent.Children = append(parent.Children, node)
			}
		}
	}
	node.Calls++
	t.callCounter++
	t.stack = append(t.stack, stackEntry{node: node, call: t.callCounter})
}

// FnLeave implements dbi.Tool.
func (t *Tool) FnLeave(fn int) {
	t.attribute()
	if len(t.stack) > 0 {
		t.stack = t.stack[:len(t.stack)-1]
	}
}

func (t *Tool) newNode(fn int, parent *Node) *Node {
	n := &Node{ID: len(t.nodes), Fn: fn, Name: t.prog.FuncName(fn), Parent: parent}
	t.nodes = append(t.nodes, n)
	return n
}

// attribute charges the instructions and operations retired since the last
// attribution point to the current context. Every call boundary is one, so
// no operation is charged to a context that was not executing it.
func (t *Tool) attribute() {
	now := t.mach.InstrCount()
	intOps, fpOps := t.mach.OpCounts()
	if cur := t.current(); cur != nil {
		cur.Self.Instrs += now - t.lastMark
		cur.Self.IntOps += intOps - t.lastInt
		cur.Self.FPOps += fpOps - t.lastFP
	}
	t.lastMark, t.lastInt, t.lastFP = now, intOps, fpOps
}

func (t *Tool) current() *Node {
	if len(t.stack) == 0 {
		return nil
	}
	return t.stack[len(t.stack)-1].node
}

// Branch implements dbi.Tool.
func (t *Tool) Branch(site uint64, taken bool) {
	cur := t.current()
	if cur == nil {
		return
	}
	cur.Self.Branches++
	if t.bp.Record(site, taken) {
		cur.Self.Mispredict++
	}
}

// MemRead implements dbi.Tool.
func (t *Tool) MemRead(addr uint64, size uint8) {
	if cur := t.current(); cur != nil {
		cur.Self.ChargeAccess(t.caches, false, addr, size)
	}
}

// MemWrite implements dbi.Tool.
func (t *Tool) MemWrite(addr uint64, size uint8) {
	if cur := t.current(); cur != nil {
		cur.Self.ChargeAccess(t.caches, true, addr, size)
	}
}

// ChargeAccess charges one data access of size bytes at addr to c: a load,
// or a store if write, its bytes, and the L1 and LL misses the hierarchy h
// simulates for it. It is the substrate's one accounting of an access:
// MemRead and MemWrite charge the executing context through it, and a tool
// that owns the run's hierarchy (see Caches) charges its own cost centres
// through it, in program order.
func (c *Costs) ChargeAccess(h *cachesim.Hierarchy, write bool, addr uint64, size uint8) {
	if write {
		c.Writes++
		c.WriteBytes += uint64(size)
	} else {
		c.Reads++
		c.ReadBytes += uint64(size)
	}
	switch h.Access(addr, size) {
	case cachesim.HitLL:
		c.L1Misses++
	case cachesim.MissAll:
		c.L1Misses++
		c.LLMisses++
	}
}

// Syscall implements dbi.Tool.
func (t *Tool) Syscall(sys vm.Sys, inAddr, inLen, outAddr, outLen uint64) {
	cur := t.current()
	if cur == nil {
		return
	}
	cur.Self.SysIn += inLen
	cur.Self.SysOut += outLen
}

// ProgramEnd implements dbi.Tool.
func (t *Tool) ProgramEnd() {
	t.attribute()
	t.totalInstrs = t.mach.InstrCount()
	t.stack = t.stack[:0]
}

// --- live queries used by the Sigil core while the program runs ---

// Current returns the executing context node (nil outside a run).
func (t *Tool) Current() *Node { return t.current() }

// CurrentCall returns the global call number of the executing call, the
// "call number" field of the paper's shadow objects.
func (t *Tool) CurrentCall() uint64 {
	if len(t.stack) == 0 {
		return 0
	}
	return t.stack[len(t.stack)-1].call
}

// Now returns the retired-instruction count, the methodology's time proxy.
func (t *Tool) Now() uint64 {
	if t.mach == nil {
		return 0
	}
	return t.mach.InstrCount()
}

// Caches returns the run's cache hierarchy. A tool that charges the run's
// loads and stores itself, with ChargeAccess, owns it for the run and does
// not forward MemRead or MemWrite here; the tool only reads the hierarchy's
// geometry again, in Profile, after the run.
func (t *Tool) Caches() *cachesim.Hierarchy { return t.caches }

// Live is a point-in-time view of the substrate's counters, the raw
// material of the telemetry sampler. Unlike Profile it is valid mid-run
// and costs only a handful of loads. The cache hierarchy's counters are not
// among them: whoever charges the accesses reads those (Caches).
type Live struct {
	Instrs      uint64 // retired instructions so far
	CallDepth   int    // live machine call-stack depth
	Contexts    int    // calling contexts materialized
	HeapBytes   uint64 // program heap bytes bump-allocated
	MemPages    int    // program memory pages materialized
	Branches    uint64
	Mispredicts uint64
}

// Live returns the current counters. Only the run goroutine may call it
// (the same constraint as every other mid-run query on the tool).
func (t *Tool) Live() Live {
	l := Live{
		Contexts:    len(t.nodes),
		Branches:    t.bp.Branches(),
		Mispredicts: t.bp.Mispredicts(),
	}
	if t.mach != nil {
		l.Instrs = t.mach.InstrCount()
		l.CallDepth = t.mach.CallDepth()
		l.HeapBytes = t.mach.HeapUsed()
		l.MemPages = t.mach.Mem.PagesAllocated()
	}
	return l
}

// Profile returns the completed profile. Call after the run ends.
func (t *Tool) Profile() *Profile {
	return &Profile{
		Program:     t.prog,
		Root:        t.root,
		Nodes:       t.nodes,
		TotalInstrs: t.totalInstrs,
		L1:          t.caches.L1.Config(),
		LL:          t.caches.LL.Config(),
	}
}

// Profile is the substrate's output: the calltree with per-context costs.
type Profile struct {
	Program     *vm.Program
	Root        *Node
	Nodes       []*Node // indexed by Node.ID
	TotalInstrs uint64
	L1, LL      cachesim.Config
}

// Inclusive returns the inclusive costs of n's whole sub-tree.
func (p *Profile) Inclusive(n *Node) Costs {
	c := n.Self
	for _, ch := range n.Children {
		c.Add(p.Inclusive(ch))
	}
	return c
}

// TotalCycleEstimate sums the cycle estimate over all contexts, estimating
// the whole program's software run time.
func (p *Profile) TotalCycleEstimate() uint64 {
	var sum uint64
	for _, n := range p.Nodes {
		sum += n.Self.CycleEstimate()
	}
	return sum
}
