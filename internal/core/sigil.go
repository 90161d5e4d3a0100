package core

import (
	"fmt"
	"time"

	"sigil/internal/callgrind"
	"sigil/internal/telemetry"
	"sigil/internal/trace"
	"sigil/internal/tracing"
	"sigil/internal/vm"
)

// Options configures a Sigil run.
type Options struct {
	// TrackReuse enables re-use mode: shadow objects grow by the re-use
	// count and lifetime fields of Table I, and per-context re-use
	// histograms are collected.
	TrackReuse bool

	// LineGranularity switches shadowing from one object per byte to one
	// object per cache line of LineSize bytes; output then includes the
	// per-line re-use report of the paper's Figure 12.
	LineGranularity bool

	// LineSize is the line size for line-granularity mode (default 64).
	LineSize int

	// MaxShadowChunks bounds shadow memory via FIFO chunk eviction
	// (0 = unlimited). The paper needs this only for dedup, with
	// negligible accuracy loss.
	MaxShadowChunks int

	// Events, when non-nil, receives the event-file representation: the
	// execution as a sequence of dependent events. Emit may run on the
	// classification worker's goroutine instead of the caller's. Calls
	// come from one goroutine at a time, never concurrently, and every call
	// happens before Run/RunContext returns, so the caller may read a
	// trace.Buffer or Close a trace.Writer once the run has returned.
	Events trace.Sink

	// MaxWall bounds the instrumented run's wall-clock time (0 means
	// unlimited). Exceeding it ends the run with a *BudgetError while
	// RunContext still returns the partial Result collected so far —
	// instrumented runs are ~100x native, so long workloads need a way to
	// stop on schedule without losing their data.
	MaxWall time.Duration

	// MaxInstrs bounds retired instructions (0 = unlimited), the
	// platform-independent analogue of MaxWall. Checked every
	// vm.StopCheckInterval instructions, so runs overshoot by at most
	// that much.
	MaxInstrs uint64

	// MaxShadowChunksHard bounds total shadow chunks ever materialized
	// (0 = unlimited). Unlike MaxShadowChunks, which evicts and keeps
	// going, exhausting this budget ends the run with a *BudgetError and
	// a partial Result — a hard memory ceiling for embedding services.
	MaxShadowChunksHard int

	// Substrate configures the Callgrind-analogue tool Run creates
	// (cache geometry, branch predictor, prefetcher). Ignored when the
	// caller builds the substrate itself and passes it to New.
	Substrate callgrind.Options

	// Telemetry, when non-nil, receives live run metrics: the tool
	// samples its counters into it at the machine's existing
	// 16K-instruction poll point, so heartbeats and the -telemetry-addr
	// endpoints can watch the run from other goroutines. The final
	// snapshot always lands on Result.Telemetry whether or not this is
	// set.
	Telemetry *telemetry.Metrics

	// Trace, when non-nil, records the run into the tracing subsystem: a
	// root "run" span with telemetry-counter deltas and a poll-point sample
	// timeline for the counter tracks of the Chrome export. The buffer
	// must be owned by the goroutine calling Run/RunContext (the machine
	// executes on the caller's goroutine). When Telemetry is nil a
	// private Metrics block is attached for the run so span deltas still
	// reconcile with Result.Telemetry.
	Trace *tracing.Buf
}

func (o Options) withDefaults() Options {
	if o.LineSize == 0 {
		o.LineSize = 64
	}
	return o
}

func (o Options) validate() error {
	if o.LineSize < 0 || o.LineSize&(o.LineSize-1) != 0 {
		return fmt.Errorf("core: line size %d must be a power of two", o.LineSize)
	}
	if o.MaxShadowChunks < 0 {
		return fmt.Errorf("core: negative shadow chunk limit")
	}
	if o.MaxShadowChunksHard < 0 {
		return fmt.Errorf("core: negative shadow chunk budget")
	}
	if o.MaxWall < 0 {
		return fmt.Errorf("core: negative wall-clock budget")
	}
	if o.TrackReuse && o.LineGranularity {
		// Line mode reports per-line access counts globally; per-context
		// re-use episodes are a byte-mode concept (the paper runs them
		// as separate modes too).
		return fmt.Errorf("core: TrackReuse and LineGranularity are separate modes; run them as two profiles")
	}
	return nil
}

// Tool is the Sigil instrumentation tool. It drives a callgrind.Tool,
// forwarding calls, branches and syscalls to it before acting, and asks it
// for the executing calling context — mirroring how the paper's Sigil hooks
// into Callgrind to identify function names and count operations.
//
// Each callback Sigil acts on becomes a record for the embedded classifier:
// accesses, syscalls, call boundaries and newly seen contexts. The
// classifier holds the shadow table, every classification aggregate, the
// call-stack mirror, the event sink and the substrate's cache hierarchy,
// and applies the records in program order: at once, or, when a CPU is
// free, on the classification worker (worker.go). It also charges each load
// and store to the substrate's costs of its context, so the interpreter
// never simulates the caches; finish adds those costs to the calltree.
type Tool struct {
	classifier
	// The classifier above is the worker's to write while one runs; the
	// fields below are the interpreter goroutine's.
	_ cacheLinePad

	sub  *callgrind.Tool
	mach *vm.Machine
	opts Options

	// ctxs is one past the highest context id announced to the classifier.
	ctxs int

	// pipe, while a worker runs, carries records to it; nil classifies
	// inline. waits counts the times the interpreter blocked on the worker
	// (telemetry classify_waits). tel is the run's metrics block, which the
	// worker samples the classifier into at poll points. holdsCPU is set
	// while the run's interpreter counts in cpusBusy.
	pipe     *worker
	waits    uint64
	tel      *telemetry.Metrics
	holdsCPU bool

	finished bool
	result   *Result
}

var _ vm.Observer = (*Tool)(nil)

// New returns a Sigil tool observing contexts through sub. Run the Sigil
// tool alone: it forwards calls, branches and syscalls to sub first and
// charges the loads and stores to sub's calltree itself, with sub's cache
// hierarchy.
func New(sub *callgrind.Tool, opts Options) (*Tool, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	t := &Tool{sub: sub, opts: opts}
	t.classifier.init(opts, sub.Caches())
	return t, nil
}

// ProgramStart implements dbi.Tool. The loader's initialized data segments
// are marked as produced at startup: they are the program's true input.
//
// The run classifies, segments and emits on a worker goroutine when a CPU
// is free for it (see claimCPU): nothing on the interpreter goroutine reads
// the classifier's state before a poll or the end of the run, and the
// sink sees its events in program order either way.
func (t *Tool) ProgramStart(p *vm.Program, m *vm.Machine) {
	t.sub.ProgramStart(p, m)
	t.mach = m
	t.prog = p
	if !t.holdsCPU {
		t.holdsCPU = true
		cpusBusy.Add(1)
	}
	if claimCPU() {
		t.startWorker()
	}
	for _, s := range p.Segments {
		if len(s.Data) == 0 {
			continue
		}
		t.classify(record{op: opStartup, addr: s.Addr, n: uint64(len(s.Data))})
	}
}

// classify applies r at once, or hands it to the worker.
func (t *Tool) classify(r record) {
	if t.pipe == nil {
		t.apply(&r)
		return
	}
	t.send(r)
}

// FnEnter implements dbi.Tool. The substrate pushes the new context first;
// Sigil announces a context it has not seen, then the call.
func (t *Tool) FnEnter(fn int) {
	t.sub.FnEnter(fn)
	node := t.sub.Current()
	if node == nil {
		return
	}
	if node.ID >= t.ctxs {
		t.ctxs = node.ID + 1
		parent := -1
		if node.Parent != nil {
			parent = node.Parent.ID
		}
		t.classify(record{op: opGrow, ctx: int32(node.ID), addr: uint64(parent), n: uint64(node.Fn)})
	}
	t.classify(record{op: opEnter, ctx: int32(node.ID), addr: t.sub.CurrentCall(), n: t.opsNow(), now: t.sub.Now()})
}

// FnLeave implements dbi.Tool.
func (t *Tool) FnLeave(fn int) {
	t.sub.FnLeave(fn)
	t.classify(record{op: opLeave, n: t.opsNow(), now: t.sub.Now()})
}

// opsNow returns the arithmetic operations the machine has retired.
func (t *Tool) opsNow() uint64 {
	intOps, fpOps := t.mach.OpCounts()
	return intOps + fpOps
}

// Branch implements dbi.Tool (no Sigil-specific action; the substrate
// simulates prediction).
func (t *Tool) Branch(site uint64, taken bool) { t.sub.Branch(site, taken) }

// MemRead implements dbi.Tool: every granule of the access is classified.
// Each granule counts one unit: a byte in byte mode (g1-g0+1 == size), a
// line-touch in line-granularity mode. The classifier charges the load to
// the substrate's costs too.
func (t *Tool) MemRead(addr uint64, size uint8) {
	t.classify(record{op: opRead, addr: addr, n: uint64(size), now: t.sub.Now()})
}

// MemWrite implements dbi.Tool: the writer takes ownership of the granules,
// and the classifier charges the store to the substrate's costs.
func (t *Tool) MemWrite(addr uint64, size uint8) {
	t.classify(record{op: opWrite, addr: addr, n: uint64(size), now: t.sub.Now()})
}

// Syscall implements dbi.Tool. The calling context consumes the input
// range (classified like its own reads — the syscall's data-marshalling
// cost belongs to the caller) and the bytes then leave the program on an
// explicit edge to the kernel; the output range is produced by the kernel.
// Per the paper, nothing inside the call is visible.
func (t *Tool) Syscall(sys vm.Sys, inAddr, inLen, outAddr, outLen uint64) {
	t.sub.Syscall(sys, inAddr, inLen, outAddr, outLen)
	now := t.sub.Now()
	if inLen > 0 {
		t.classify(record{op: opSysIn, addr: inAddr, n: inLen, now: now})
	}
	if outLen > 0 {
		t.classify(record{op: opKernel, addr: outAddr, n: outLen, now: now})
	}
	t.classify(record{op: opSys, ctx: int32(sys), addr: inLen, n: outLen, now: now})
}

// ProgramEnd implements dbi.Tool: the substrate closes its calltree, then
// Sigil finishes.
func (t *Tool) ProgramEnd() {
	t.sub.ProgramEnd()
	t.finish()
}

// finish joins the worker, adds the classifier's load and store costs to
// the calltree, closes the calls still open, flushes the open re-use
// episodes of all live shadow chunks, and freezes the result. Every run
// ends here, a partial one too, so the calltree always holds the accesses
// the classifier was sent.
func (t *Tool) finish() {
	t.join()
	t.chargeCalltree()
	if t.holdsCPU {
		t.holdsCPU = false
		cpusBusy.Add(-1)
	}
	for t.top != nil {
		t.leave(t.opsNow(), t.sub.Now())
	}
	t.shadow.forEach(t.flushChunk)
	t.finished = true
}

// chargeCalltree adds the classifier's per-context load and store costs to
// the substrate's calltree, once: a finish that a panic cut short and abort
// repeats finds them charged.
func (t *Tool) chargeCalltree() {
	nodes := t.sub.Profile().Nodes
	for id := range t.costs {
		nodes[id].Self.Add(t.costs[id])
	}
	t.costs = nil
}

// abort force-finishes observation after a mid-run failure (typically a
// recovered panic that skipped the machine's ProgramEnd), so the aggregates
// collected up to the failure can still be frozen into a Result. A second
// failure while finalizing is swallowed: salvage is best-effort.
func (t *Tool) abort() {
	if t.finished {
		return
	}
	// The worker is joined first: until then the classifier is its, and
	// the records it still holds emit what inline classification had
	// emitted before the failure. The event sink may be the very thing
	// that panicked: emission stops before finalizing, and each
	// finalization step is attempted independently.
	func() {
		defer func() { _ = recover() }()
		t.join()
	}()
	t.sink = nil
	func() {
		defer func() { _ = recover() }()
		t.sub.ProgramEnd()
	}()
	func() {
		defer func() { _ = recover() }()
		t.finish()
	}()
	t.finished = true
}

// EventError returns the first event-sink error, if any (profiling continues
// past sink failures; aggregates stay valid). It is read once the run has
// ended and the worker is joined.
func (t *Tool) EventError() error { return t.evErr }
