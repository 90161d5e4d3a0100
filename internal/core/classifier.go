package core

import (
	"sigil/internal/cachesim"
	"sigil/internal/callgrind"
	"sigil/internal/trace"
	"sigil/internal/vm"
)

// classifier consumes the run as one stream of records in program order:
// classification, the call-stack mirror that names each access's frame,
// and event segmentation and emission. Tool embeds one and applies each
// record at once, or has the classification worker (worker.go) apply them;
// either way one goroutine at a time owns all of the state below.
type classifier struct {
	shadow *shadowTable
	shift  uint // log2 granule size: 0 in byte mode

	// Mode flags, copied out of Options so a classifier is self-contained.
	lineMode   bool
	trackReuse bool

	comm  []CommStats  // indexed by context ID
	reuse []ReuseStats // indexed by context ID; nil unless trackReuse

	// The substrate's load and store costs, indexed by context ID: counts,
	// bytes and the misses of caches, the substrate's hierarchy, which
	// simulates the accesses in program order. finish adds them to the
	// calltree.
	costs  []callgrind.Costs
	caches *cachesim.Hierarchy

	edges     map[uint64]*Edge
	edgeKey   uint64 // one-entry edge cache for runs of same-edge bytes
	edgeCache *Edge

	// Pseudo-producer aggregate: bytes the program consumed from startup
	// data and from the kernel, and bytes the kernel consumed.
	startupOut uint64
	kernelOut  uint64
	kernelIn   uint64

	lines *LineReport

	// Batch-classifier telemetry: spans are per-chunk segments of an
	// access, runs are the classification invocations they decomposed into
	// (one per state-uniform sub-segment), granules is the total granule
	// count covered.
	// runs/granules is the amortization factor the batching achieves.
	spans    uint64
	runs     uint64
	granules uint64

	// The call-stack mirror: one frame per open call, top the innermost
	// (nil outside any call). The top frame reads and writes the accesses.
	frames []segFrame
	top    *segFrame

	// Event emission. sink is nil when events are off; it stays the
	// classifier's, so Emit runs on whichever goroutine applies records.
	// evErr is the sink's first error, after which nothing more is
	// emitted; emitted counts the events the sink accepted. evStats, when
	// the sink exposes async-writer pipeline counters, feeds them to
	// telemetry. defs holds each context's parent and function for its
	// KindDefCtx, and prog names the function.
	sink    trace.Sink
	evErr   error
	emitted uint64
	evStats func() trace.WriterStats
	defs    []ctxDef
	prog    *vm.Program
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

// ctxDef is what KindDefCtx says of a context: its parent (-1 for the
// root) and its function, and whether it has been emitted.
type ctxDef struct {
	parent  int32
	fn      int32
	defined bool
}

// init wires the classifier for the given mode and the substrate's cache
// hierarchy. The shadow table's eviction hook is the classifier's own
// flushChunk, so init must run after the classifier has its final address.
func (c *classifier) init(opts Options, caches *cachesim.Hierarchy) {
	c.caches = caches
	c.lineMode = opts.LineGranularity
	c.trackReuse = opts.TrackReuse
	c.edges = make(map[uint64]*Edge)
	c.edgeKey = ^uint64(0)
	if opts.LineGranularity {
		for 1<<c.shift < opts.LineSize {
			c.shift++
		}
		c.lines = &LineReport{LineSize: opts.LineSize}
	}
	// Line mode always tracks per-line access counts; byte mode tracks
	// episodes only when re-use mode is on.
	wantReuse := opts.TrackReuse || opts.LineGranularity
	c.shadow = newShadowTable(opts.MaxShadowChunks, wantReuse, c.flushChunk)
	c.sink = opts.Events
	if st, ok := opts.Events.(interface{ Stats() trace.WriterStats }); ok {
		c.evStats = st.Stats
	}
}

// Record ops.
const (
	opRead    uint8 = iota // a load by the top frame
	opWrite                // a store by the top frame
	opKernel               // a syscall's output range, written by the kernel
	opStartup              // ProgramStart data-segment marking: writer stamp only
	opSysIn                // a syscall's input range: read by the top frame, then sent to the kernel
	opSys                  // a syscall by the top frame: vm.Sys in ctx, input and output bytes in addr and n
	opGrow                 // a context id seen for the first time, in ctx: parent id in addr, function in n
	opEnter                // a call of context ctx: call number in addr, operations retired in n
	opLeave                // the top frame's call returns: operations retired in n
	opSample               // a telemetry poll point: instructions, heap bytes and wall time in addr, n and now
)

// record is one step of the run in program order, which the interpreter
// applies at once or hands to the worker: an access, a syscall, a call
// boundary, a newly seen context or a poll point. now is the retired
// instruction count at the record, except on a poll point. The frame an
// access belongs to is the classifier's top frame, so no record names it.
type record struct {
	addr, n, now uint64
	ctx          int32
	op           uint8
}

// apply runs one record on the classifier.
func (c *classifier) apply(r *record) {
	switch r.op {
	case opRead, opWrite:
		if f := c.top; f != nil {
			c.costs[f.ctx].ChargeAccess(c.caches, r.op == opWrite, r.addr, uint8(r.n))
			c.access(r.op, f, r.addr, r.n, r.now)
		}
	case opKernel, opStartup:
		c.access(r.op, nil, r.addr, r.n, r.now)
	case opSysIn:
		if f := c.top; f != nil {
			// The caller consumes the input like its own reads; the
			// bytes then leave the program on an explicit edge to the
			// kernel.
			units := c.access(opRead, f, r.addr, r.n, r.now)
			c.kernelIn += units
			c.comm[f.ctx].OutputUnique += units
			c.edge(f.enc, encKernel).Unique += units
		}
	case opSys:
		if f := c.top; f != nil && c.sink != nil {
			c.emit(trace.Event{
				Kind: trace.KindSys, Ctx: f.ctx, Call: f.call,
				Bytes: r.addr, Ops: r.n, Time: r.now, Name: vm.Sys(r.ctx).Name(),
			})
		}
	case opGrow:
		c.growCtx(r.ctx, int32(r.addr), int32(r.n))
	case opEnter:
		c.enter(r.ctx, r.addr, r.n, r.now)
	case opLeave:
		c.leave(r.n, r.now)
	}
}

// access classifies the n > 0 bytes at addr as op: read or written by
// frame f, written by the kernel, or produced at startup. It returns the
// number of granules the bytes cover. Bytes that wrap past 2^64 are
// classified as two pieces, the top of the address space and its start,
// because the machine's memory wraps the same way.
func (c *classifier) access(op uint8, f *segFrame, addr, n, now uint64) uint64 {
	last := addr + n - 1
	if last < addr {
		top := -addr // bytes from addr to the top of the address space
		return c.access(op, f, addr, top, now) + c.access(op, f, 0, n-top, now)
	}
	g0, g1 := addr>>c.shift, last>>c.shift
	switch op {
	case opRead:
		c.readRange(f, g0, g1, now)
	case opWrite:
		c.writeRange(f.enc, f.call, g0, g1, now)
	case opKernel:
		c.writeRange(encKernel, 0, g0, g1, now)
	default:
		c.markStartup(g0, g1)
	}
	return g1 - g0 + 1
}

// --- batched classification hot path ---
//
// The paper pays 20-99x over native for byte-level shadowing; batching
// claws a large constant factor back by amortizing the two per-granule
// costs: the first-level chunk lookup (one per per-chunk span instead of one
// per granule) and the fully branchy classification (one per run of
// granules in identical shadow state, counted n times). Workload accesses
// are overwhelmingly runs: a function streaming over a buffer leaves every
// byte with the same (writer, writerCall, reader, readerCall) tuple, so an
// 8-byte load classifies once, and a syscall marshalling 4KiB classifies a
// handful of times.

// readRange classifies the granule range [g0,g1] read by frame f at time
// now. It splits the range into per-chunk spans and classifies each with
// the run fast path.
//
//sigil:hot
func (c *classifier) readRange(f *segFrame, g0, g1, now uint64) {
	for g := g0; inRange(g, g0, g1); {
		ch, idx := c.shadow.get(g)
		end := g | chunkMask
		if end > g1 {
			end = g1
		}
		c.readSpan(f, ch, idx, uint32(end-g+1), now)
		g = end + 1
	}
}

// readSpan classifies n granules of one chunk starting at intra-chunk index
// idx: consecutive granules in identical shadow state form a run that is
// classified once and counted len(run) times.
//
// State changes within the span start the next run, so the worst case, every
// granule in a different state, costs one classification plus one
// comparison per granule.
//
//sigil:hot
func (c *classifier) readSpan(f *segFrame, ch *shadowChunk, idx, n uint32, now uint64) {
	c.spans++
	c.granules += uint64(n)
	objs := ch.objs[idx : idx+n]
	call32 := uint32(f.call)
	for i := uint32(0); i < n; {
		st := objs[i]
		j := i + 1
		for j < n && objs[j] == st {
			j++
		}
		c.runs++
		c.classifyRun(f, st, uint64(j-i))
		if ch.reuse != nil {
			c.reuseRun(f, ch.reuse[idx+i:idx+j], st, call32, now)
		}
		for k := i; k < j; k++ {
			objs[k].reader = f.enc
			objs[k].readerCall = call32
		}
		i = j
	}
}

// classifyRun classifies a run of `bytes` granules read by frame f that
// share the shadow state obj, as DESIGN §4 specifies; the differential and
// fuzz tests check it against an independent reference.
//
//sigil:hot
func (c *classifier) classifyRun(f *segFrame, obj shadowObj, bytes uint64) {
	// Unique vs non-unique follows the paper's mechanism exactly: "Sigil
	// checks if the reading FUNCTION is the last reader and if so counts
	// the read as non-unique" — the call number is not consulted for
	// uniqueness (it delimits re-use episodes in reuseRun). This is what
	// makes a function's repeated sweeps over the same data count once.
	sameReader := obj.reader == f.enc
	src := obj.writer
	if src == encInvalid {
		src = encStartup
	}
	s := &c.comm[f.ctx]
	if src == f.enc {
		if sameReader {
			s.LocalNonUnique += bytes
		} else {
			s.LocalUnique += bytes
		}
		return
	}
	if sameReader {
		s.InputNonUnique += bytes
	} else {
		s.InputUnique += bytes
	}
	switch src {
	case encStartup:
		if !sameReader {
			c.startupOut += bytes
		}
	case encKernel:
		if !sameReader {
			c.kernelOut += bytes
		}
	default:
		p := &c.comm[src-encBias]
		if sameReader {
			p.OutputNonUnique += bytes
		} else {
			p.OutputUnique += bytes
		}
	}
	e := c.edge(src, f.enc)
	if sameReader {
		e.NonUnique += bytes
	} else {
		e.Unique += bytes
	}
	if !sameReader && c.sink != nil {
		c.accumulateComm(f, src, uint64(obj.writerCall), bytes)
	}
}

// reuseRun updates the re-use extension for one run. The branch taken is
// the same for every granule of a run (the run key includes reader and
// readerCall), so it hoists here; the per-granule counters and timestamps
// still update individually.
//
//sigil:hot
func (c *classifier) reuseRun(f *segFrame, ros []reuseObj, st shadowObj, call32 uint32, now uint64) {
	if c.lineMode {
		// Line mode: global per-line access counting, no resets.
		for k := range ros {
			ro := &ros[k]
			if ro.count == 0 && ro.first == 0 {
				ro.first = now
			}
			ro.count++
			ro.last = now
		}
		return
	}
	if st.reader == f.enc && st.readerCall == call32 {
		// Same function call re-reading the granules: the episodes
		// continue (re-use lifetimes are per function call).
		for k := range ros {
			ros[k].count++
			ros[k].last = now
		}
		return
	}
	flush := st.reader != encInvalid
	for k := range ros {
		ro := &ros[k]
		if flush {
			c.flushEpisode(st.reader, ro)
		}
		ro.count = 0
		ro.first = now
		ro.last = now
	}
}

// writeRange records the producer of the granule range [g0,g1], one chunk
// lookup per span.
//
//sigil:hot
func (c *classifier) writeRange(enc uint32, call uint64, g0, g1, now uint64) {
	call32 := uint32(call)
	lineReuse := c.lineMode
	for g := g0; inRange(g, g0, g1); {
		ch, idx := c.shadow.get(g)
		end := g | chunkMask
		if end > g1 {
			end = g1
		}
		objs := ch.objs[idx : idx+uint32(end-g+1)]
		for k := range objs {
			objs[k].writer = enc
			objs[k].writerCall = call32
		}
		if lineReuse && ch.reuse != nil {
			ros := ch.reuse[idx : idx+uint32(len(objs))]
			for k := range ros {
				ro := &ros[k]
				if ro.count == 0 && ro.first == 0 {
					ro.first = now
				}
				ro.count++
				ro.last = now
			}
		}
		g = end + 1
	}
}

// markStartup stamps the granule range [g0,g1] as produced by program
// startup: one chunk lookup per span, writer stamp only — startup marking
// never touches the re-use extension, so this is not writeRange.
//
//sigil:hot
func (c *classifier) markStartup(g0, g1 uint64) {
	for g := g0; inRange(g, g0, g1); {
		ch, idx := c.shadow.get(g)
		end := g | chunkMask
		if end > g1 {
			end = g1
		}
		objs := ch.objs[idx : idx+uint32(end-g+1)]
		for k := range objs {
			objs[k].writer = encStartup
			objs[k].writerCall = 0
		}
		g = end + 1
	}
}

// inRange reports whether granule g lies in [g0,g1]. A walk over a range
// that ends at the top granule steps past it by wrapping to 0, where a plain
// g <= g1 would never stop.
func inRange(g, g0, g1 uint64) bool { return g-g0 <= g1-g0 }

// edge returns (allocating if needed) the aggregate edge src→dst, with a
// one-entry cache for byte runs along the same edge.
func (c *classifier) edge(srcEnc, dstEnc uint32) *Edge {
	key := uint64(srcEnc)<<32 | uint64(dstEnc)
	if key == c.edgeKey {
		return c.edgeCache
	}
	e := c.edges[key]
	if e == nil {
		e = &Edge{Src: decodeCtx(srcEnc), Dst: decodeCtx(dstEnc)}
		c.edges[key] = e
	}
	c.edgeKey, c.edgeCache = key, e
	return e
}

// growCtx sizes the per-context aggregates for context id, and on an event
// run keeps its parent and function for its KindDefCtx. An opGrow record
// precedes the first access by a newly entered context, so every context
// the shadow state can name (writer or reader) already has its slots.
func (c *classifier) growCtx(id, parent, fn int32) {
	if c.sink != nil {
		for len(c.defs) <= int(id) {
			c.defs = append(c.defs, ctxDef{parent: -1})
		}
		c.defs[id] = ctxDef{parent: parent, fn: fn}
	}
	for len(c.comm) <= int(id) {
		c.comm = append(c.comm, CommStats{})
		c.costs = append(c.costs, callgrind.Costs{})
	}
	if c.trackReuse {
		for len(c.reuse) <= int(id) {
			c.reuse = append(c.reuse, ReuseStats{})
		}
	}
}

// flushEpisode closes one re-use episode attributed to the encoded reader,
// which is always a context: only a frame reads.
func (c *classifier) flushEpisode(readerEnc uint32, ro *reuseObj) {
	c.reuse[readerEnc-encBias].recordEpisode(ro.count, ro.last-ro.first)
}

// flushChunk is the eviction / end-of-run hook: open episodes flush to their
// readers, and in line mode each touched line joins the global report.
func (c *classifier) flushChunk(key uint64, ch *shadowChunk) {
	if ch.reuse == nil {
		return
	}
	if c.lineMode {
		for i := range ch.reuse {
			ro := &ch.reuse[i]
			if ro.count > 0 {
				c.lines.record(uint64(ro.count) - 1)
			}
		}
		return
	}
	for i := range ch.objs {
		if ch.objs[i].reader != encInvalid {
			c.flushEpisode(ch.objs[i].reader, &ch.reuse[i])
			ch.objs[i].reader = encInvalid
		}
	}
}

// --- call boundaries and event emission ---

// enter opens a call of context ctx with call number call, ops operations
// retired and now instructions: on an event run the caller's open segment
// closes, the context is defined at its first call and the entry is
// emitted.
func (c *classifier) enter(ctx int32, call, ops, now uint64) {
	if c.sink != nil {
		if c.top != nil {
			c.closeSegment(c.top, ops, now)
		}
		c.defineCtx(ctx)
		c.emit(trace.Event{Kind: trace.KindEnter, Ctx: ctx, Call: call, Time: now})
	}
	// The new frame reuses the communication buffer of the call that last
	// returned from this depth.
	if len(c.frames) == cap(c.frames) {
		c.frames = append(c.frames, segFrame{})
	} else {
		c.frames = c.frames[:len(c.frames)+1]
	}
	f := &c.frames[len(c.frames)-1]
	*f = segFrame{ctx: ctx, enc: encodeCtx(ctx), call: call, mark: ops, comm: f.comm[:0]}
	c.top = f
}

// leave ends the top frame's call with ops operations retired and now
// instructions. The caller's next segment starts then, so its operation
// mark moves past the operations the callee retired.
func (c *classifier) leave(ops, now uint64) {
	f := c.top
	if f == nil {
		return
	}
	if c.sink != nil {
		c.closeSegment(f, ops, now)
		c.emit(trace.Event{Kind: trace.KindLeave, Ctx: f.ctx, Call: f.call, Time: now})
	}
	c.frames = c.frames[:len(c.frames)-1]
	c.top = nil
	if n := len(c.frames); n > 0 {
		c.top = &c.frames[n-1]
		c.top.mark = ops
	}
}

func (c *classifier) accumulateComm(f *segFrame, srcEnc uint32, srcCall, bytes uint64) {
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
func (c *classifier) closeSegment(f *segFrame, ops, now uint64) {
	if ops == f.mark && len(f.comm) == 0 {
		return
	}
	for _, cm := range f.comm {
		c.emit(trace.Event{
			Kind:    trace.KindComm,
			Ctx:     f.ctx,
			Call:    f.call,
			SrcCtx:  decodeCtx(cm.srcEnc),
			SrcCall: cm.srcCall,
			Bytes:   cm.bytes,
			Time:    now,
		})
	}
	c.emit(trace.Event{Kind: trace.KindOps, Ctx: f.ctx, Call: f.call, Ops: ops - f.mark, Time: now})
	f.mark = ops
	f.comm = f.comm[:0]
}

// defineCtx emits KindDefCtx for ctx at its first call. Its parent was
// entered before it, so it is defined already.
func (c *classifier) defineCtx(ctx int32) {
	d := &c.defs[ctx]
	if d.defined {
		return
	}
	d.defined = true
	c.emit(trace.Event{Kind: trace.KindDefCtx, Ctx: ctx, SrcCtx: d.parent, Name: c.prog.FuncName(int(d.fn))})
}

func (c *classifier) emit(e trace.Event) {
	if c.evErr != nil {
		return
	}
	if err := c.sink.Emit(e); err != nil {
		c.evErr = err
		return
	}
	c.emitted++
}
