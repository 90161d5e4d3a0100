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
	// execution as a sequence of dependent events.
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

	// refScalar forces the retained granule-at-a-time reference
	// classification path instead of the batched chunk-run path. The two
	// are required to produce byte-identical results; this knob exists so
	// the differential and fuzz harnesses can prove it, and is therefore
	// unexported: it is not a supported production mode.
	refScalar bool
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
// forwarding every callback to it before acting, and asks it for the
// executing calling context — mirroring how the paper's Sigil hooks into
// Callgrind to identify function names and count operations.
//
// The embedded classifier holds the shadow table and every classification
// aggregate. The memory callbacks classify each access at once, or, on runs
// without an event sink that find a CPU free, turn it into a record for the
// classification worker (worker.go), which applies the records in program
// order.
type Tool struct {
	classifier
	// The classifier above is the worker's to write while one runs; the
	// fields below are the interpreter goroutine's.
	_ cacheLinePad

	sub  *callgrind.Tool
	mach *vm.Machine
	opts Options

	stack   []segFrame
	events  trace.Sink
	evErr   error
	emitted uint64 // events accepted by the sink, for telemetry sampling
	// evStats, when the sink exposes async-writer pipeline counters
	// (queue depth, stalls, frames, compressed bytes), feeds them to the
	// telemetry sampler; nil for plain sinks like trace.Buffer.
	evStats func() trace.WriterStats
	// defined tracks which contexts have had a KindDefCtx emitted.
	defined []bool
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

// segFrame mirrors one open function call for event segmentation:
// per-producer unique bytes accumulate until the segment closes at the next
// call boundary, which emits them with the operations retired since mark.
type segFrame struct {
	ctx  int32
	enc  uint32 // encoded ctx, cached for the hot path
	call uint64
	mark uint64 // machine operation count when the open segment began
	comm []commAcc
}

type commAcc struct {
	srcEnc  uint32
	srcCall uint64
	bytes   uint64
}

var _ vm.Observer = (*Tool)(nil)

// New returns a Sigil tool observing contexts through sub. Run the Sigil
// tool alone: it forwards each event to sub first.
func New(sub *callgrind.Tool, opts Options) (*Tool, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	t := &Tool{
		sub:    sub,
		opts:   opts,
		events: opts.Events,
	}
	t.classifier.init(opts)
	if t.events != nil {
		t.onComm = t.accumulateComm
	}
	if st, ok := opts.Events.(interface{ Stats() trace.WriterStats }); ok {
		t.evStats = st.Stats
	}
	return t, nil
}

// ProgramStart implements dbi.Tool. The loader's initialized data segments
// are marked as produced at startup: they are the program's true input.
//
// A run without an event sink classifies on a worker goroutine when a CPU
// is free for it (see claimCPU): nothing reads classification results
// before a poll or the end of the run. Event runs classify inline, because
// each segment's communication is emitted at its call boundary.
func (t *Tool) ProgramStart(p *vm.Program, m *vm.Machine) {
	t.sub.ProgramStart(p, m)
	t.mach = m
	if !t.holdsCPU {
		t.holdsCPU = true
		cpusBusy.Add(1)
	}
	if t.events == nil && t.pipe == nil && claimCPU() {
		t.startWorker()
	}
	for _, s := range p.Segments {
		if len(s.Data) == 0 {
			continue
		}
		t.classify(record{op: opStartup, ctx: trace.CtxStartup, enc: encStartup, addr: s.Addr, n: uint64(len(s.Data))}, nil)
	}
}

// classify applies r at once, or hands it to the worker. f is the frame r
// names (nil for kernel writes and startup data).
func (t *Tool) classify(r record, f *segFrame) {
	if t.pipe == nil {
		t.apply(&r, f)
		return
	}
	t.send(r)
}

// FnEnter implements dbi.Tool. The substrate pushes the new context first;
// Sigil mirrors it and starts a fresh event segment.
func (t *Tool) FnEnter(fn int) {
	t.sub.FnEnter(fn)
	node := t.sub.Current()
	if node == nil {
		return
	}
	call := t.sub.CurrentCall()
	t.growCtx(node.ID)
	if t.events != nil {
		if len(t.stack) > 0 {
			t.closeSegment(&t.stack[len(t.stack)-1])
		}
		t.defineCtx(node)
		t.emit(trace.Event{Kind: trace.KindEnter, Ctx: int32(node.ID), Call: call, Time: t.sub.Now()})
	}
	t.stack = append(t.stack, segFrame{
		ctx:  int32(node.ID),
		enc:  encodeCtx(int32(node.ID)),
		call: call,
		mark: t.opsNow(),
	})
}

// FnLeave implements dbi.Tool.
func (t *Tool) FnLeave(fn int) {
	t.sub.FnLeave(fn)
	if len(t.stack) == 0 {
		return
	}
	f := &t.stack[len(t.stack)-1]
	if t.events != nil {
		t.closeSegment(f)
		t.emit(trace.Event{Kind: trace.KindLeave, Ctx: f.ctx, Call: f.call, Time: t.sub.Now()})
	}
	t.pop()
}

// pop ends the top frame's call. The caller's next segment starts now, so
// its operation mark moves past the operations the callee retired.
func (t *Tool) pop() {
	t.stack = t.stack[:len(t.stack)-1]
	if len(t.stack) > 0 {
		t.stack[len(t.stack)-1].mark = t.opsNow()
	}
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
// line-touch in line-granularity mode.
func (t *Tool) MemRead(addr uint64, size uint8) {
	t.sub.MemRead(addr, size)
	if len(t.stack) == 0 {
		return
	}
	f := &t.stack[len(t.stack)-1]
	if t.pipe != nil {
		t.send(record{op: opRead, ctx: f.ctx, enc: f.enc, call: f.call, addr: addr, n: uint64(size), now: t.sub.Now()})
		return
	}
	t.access(opRead, f, f.enc, f.call, addr, uint64(size), t.sub.Now())
}

// MemWrite implements dbi.Tool: the writer takes ownership of the granules.
func (t *Tool) MemWrite(addr uint64, size uint8) {
	t.sub.MemWrite(addr, size)
	if len(t.stack) == 0 {
		return
	}
	f := &t.stack[len(t.stack)-1]
	if t.pipe != nil {
		t.send(record{op: opWrite, ctx: f.ctx, enc: f.enc, call: f.call, addr: addr, n: uint64(size), now: t.sub.Now()})
		return
	}
	t.access(opWrite, f, f.enc, f.call, addr, uint64(size), t.sub.Now())
}

// Syscall implements dbi.Tool. The calling context consumes the input
// range (classified like its own reads — the syscall's data-marshalling
// cost belongs to the caller) and the bytes then leave the program on an
// explicit edge to the kernel; the output range is produced by the kernel.
// Per the paper, nothing inside the call is visible.
func (t *Tool) Syscall(sys vm.Sys, inAddr, inLen, outAddr, outLen uint64) {
	t.sub.Syscall(sys, inAddr, inLen, outAddr, outLen)
	now := t.sub.Now()
	if inLen > 0 && len(t.stack) > 0 {
		f := &t.stack[len(t.stack)-1]
		t.classify(record{op: opSysIn, ctx: f.ctx, enc: f.enc, call: f.call, addr: inAddr, n: inLen, now: now}, f)
	}
	if outLen > 0 {
		t.classify(record{op: opWrite, ctx: trace.CtxKernel, enc: encKernel, addr: outAddr, n: outLen, now: now}, nil)
	}
	if t.events != nil && len(t.stack) > 0 {
		f := &t.stack[len(t.stack)-1]
		t.emit(trace.Event{
			Kind: trace.KindSys, Ctx: f.ctx, Call: f.call,
			Bytes: inLen, Ops: outLen, Time: now, Name: sys.Name(),
		})
	}
}

// ProgramEnd implements dbi.Tool: the substrate closes its calltree, then
// Sigil finishes.
func (t *Tool) ProgramEnd() {
	t.sub.ProgramEnd()
	t.finish()
}

// finish joins the worker, closes the remaining segments, flushes the open
// re-use episodes of all live shadow chunks, and freezes the result.
func (t *Tool) finish() {
	t.join()
	if t.holdsCPU {
		t.holdsCPU = false
		cpusBusy.Add(-1)
	}
	for len(t.stack) > 0 {
		f := &t.stack[len(t.stack)-1]
		if t.events != nil {
			t.closeSegment(f)
			t.emit(trace.Event{Kind: trace.KindLeave, Ctx: f.ctx, Call: f.call, Time: t.sub.Now()})
		}
		t.pop()
	}
	t.shadow.forEach(t.flushChunk)
	t.finished = true
}

// abort force-finishes observation after a mid-run failure (typically a
// recovered panic that skipped the machine's ProgramEnd), so the aggregates
// collected up to the failure can still be frozen into a Result. A second
// failure while finalizing is swallowed: salvage is best-effort.
func (t *Tool) abort() {
	if t.finished {
		return
	}
	// The event sink may be the very thing that panicked: stop emitting
	// while finalizing, and attempt each finalization step independently.
	// The worker is joined first: until then the classifier is its.
	t.events = nil
	func() {
		defer func() { _ = recover() }()
		t.join()
	}()
	t.onComm = nil
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

func (t *Tool) growCtx(id int) {
	if id >= t.ctxs {
		t.ctxs = id + 1
		t.classify(record{op: opGrow, ctx: int32(id)}, nil)
	}
	if t.events != nil {
		for len(t.defined) <= id {
			t.defined = append(t.defined, false)
		}
	}
}

// --- event emission ---

func (t *Tool) accumulateComm(f *segFrame, srcEnc uint32, srcCall, bytes uint64) {
	for i := range f.comm {
		if f.comm[i].srcEnc == srcEnc && f.comm[i].srcCall == srcCall {
			f.comm[i].bytes += bytes
			return
		}
	}
	f.comm = append(f.comm, commAcc{srcEnc: srcEnc, srcCall: srcCall, bytes: bytes})
}

// closeSegment emits the open segment's accumulated communication and the
// operations retired since the segment began, then resets the frame for its
// next segment.
func (t *Tool) closeSegment(f *segFrame) {
	ops := t.opsNow()
	if ops == f.mark && len(f.comm) == 0 {
		return
	}
	now := t.sub.Now()
	for _, c := range f.comm {
		t.emit(trace.Event{
			Kind:    trace.KindComm,
			Ctx:     f.ctx,
			Call:    f.call,
			SrcCtx:  decodeCtx(c.srcEnc),
			SrcCall: c.srcCall,
			Bytes:   c.bytes,
			Time:    now,
		})
	}
	t.emit(trace.Event{Kind: trace.KindOps, Ctx: f.ctx, Call: f.call, Ops: ops - f.mark, Time: now})
	f.mark = ops
	f.comm = f.comm[:0]
}

func (t *Tool) defineCtx(node *callgrind.Node) {
	if t.defined[node.ID] {
		return
	}
	parent := int32(-1)
	if node.Parent != nil {
		if !t.defined[node.Parent.ID] {
			t.defineCtx(node.Parent)
		}
		parent = int32(node.Parent.ID)
	}
	t.defined[node.ID] = true
	t.emit(trace.Event{Kind: trace.KindDefCtx, Ctx: int32(node.ID), SrcCtx: parent, Name: node.Name})
}

func (t *Tool) emit(e trace.Event) {
	if t.evErr != nil {
		return
	}
	if err := t.events.Emit(e); err != nil {
		t.evErr = err
		return
	}
	t.emitted++
}

// EventError returns the first event-sink error, if any (profiling continues
// past sink failures; aggregates stay valid).
func (t *Tool) EventError() error { return t.evErr }
