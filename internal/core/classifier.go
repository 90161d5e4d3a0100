package core

// classifier is the classification engine: the shadow table plus every
// aggregate that read/write classification updates. Tool embeds one and
// runs it on the interpreter goroutine, or has the classification worker
// (worker.go) run it from records, in program order either way.
type classifier struct {
	shadow *shadowTable
	shift  uint // log2 granule size: 0 in byte mode

	// Mode flags, copied out of Options so a classifier is self-contained.
	lineMode   bool
	trackReuse bool

	// scalar selects the retained reference classification path (see
	// Options.refScalar). The default is the batched chunk-run path.
	scalar bool

	comm  []CommStats  // indexed by context ID
	reuse []ReuseStats // indexed by context ID; nil unless trackReuse

	edges     map[uint64]*Edge
	edgeKey   uint64 // one-entry edge cache for runs of same-edge bytes
	edgeCache *Edge

	// Pseudo-producer aggregate: bytes the program consumed from startup
	// data and from the kernel, and bytes the kernel consumed.
	startupOut  uint64
	kernelOut   uint64
	kernelIn    uint64
	kernelReuse ReuseStats // episodes whose reader was the kernel

	lines *LineReport

	// Batch-classifier telemetry: spans are per-chunk segments of an
	// access, runs are the classification invocations they decomposed into
	// (one per state-uniform sub-segment, or one per granule past the
	// short-run cutover), granules is the total granule count covered.
	// runs/granules is the amortization factor the batching achieves.
	spans    uint64
	runs     uint64
	granules uint64

	// onComm, when non-nil, receives every non-unique-filtered cross-context
	// read so the event representation can attribute per-segment
	// communication; Tool binds accumulateComm. nil means events are off.
	onComm func(f *segFrame, srcEnc uint32, srcCall, bytes uint64)
}

// init wires the classifier for the given mode. The shadow table's eviction
// hook is the classifier's own flushChunk, so init must run after the
// classifier has its final address.
func (c *classifier) init(opts Options) {
	c.lineMode = opts.LineGranularity
	c.trackReuse = opts.TrackReuse
	c.scalar = opts.refScalar
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
}

// Record ops.
const (
	opRead    uint8 = iota // a load by the record's frame
	opWrite                // a store by the record's frame, or a kernel write
	opStartup              // ProgramStart data-segment marking: writer stamp only
	opSysIn                // a syscall's input range: read by the frame, then sent to the kernel
	opGrow                 // a context id seen for the first time, in ctx
	opSample               // a telemetry poll point, taken by the worker (worker.go)
)

// record is one step of classification the interpreter hands to the
// worker, in program order: an access (op, the accessing frame's
// ctx/enc/call, address, length and time), a syscall's input range, a newly
// seen context id, which sizes comm and reuse before any access can name
// it, or a poll point, which carries the poll's instructions, heap bytes,
// wall time and events in addr, n, now and call. Kernel writes carry
// CtxKernel and startup data CtxStartup.
type record struct {
	addr, n, now, call uint64
	ctx                int32
	enc                uint32
	op                 uint8
}

// apply runs one record on the classifier. f is the frame the record
// names: the interpreter's open frame inline, the worker's scratch frame
// in the pipeline, and nil for kernel writes and startup data classified
// inline.
func (c *classifier) apply(r *record, f *segFrame) {
	switch r.op {
	case opGrow:
		c.growComm(int(r.ctx))
	case opSysIn:
		// The caller consumes the input like its own reads; the bytes then
		// leave the program on an explicit edge to the kernel.
		units := c.access(opRead, f, r.enc, r.call, r.addr, r.n, r.now)
		c.kernelIn += units
		if r.ctx >= 0 {
			c.comm[r.ctx].OutputUnique += units
		}
		c.edge(r.enc, encKernel).Unique += units
	default:
		c.access(r.op, f, r.enc, r.call, r.addr, r.n, r.now)
	}
}

// access classifies the n > 0 bytes at addr as op: read by frame f,
// written by the producer enc/call, or produced at startup. It returns the
// number of granules the bytes cover. Bytes that wrap past 2^64 are
// classified as two pieces, the top of the address space and its start,
// because the machine's memory wraps the same way.
func (c *classifier) access(op uint8, f *segFrame, enc uint32, call, addr, n, now uint64) uint64 {
	last := addr + n - 1
	if last < addr {
		top := -addr // bytes from addr to the top of the address space
		return c.access(op, f, enc, call, addr, top, now) + c.access(op, f, enc, call, 0, n-top, now)
	}
	g0, g1 := addr>>c.shift, last>>c.shift
	switch op {
	case opRead:
		c.readRange(f, g0, g1, now)
	case opWrite:
		c.writeRange(enc, call, g0, g1, now)
	default:
		c.markStartup(g0, g1)
	}
	return g1 - g0 + 1
}

// Run-length cutover (see readSpan): after cutoverShortRuns consecutive runs
// shorter than cutoverRunLen granules, the rest of the span classifies
// granule-at-a-time — on alternating-state data the equality scan never
// amortizes, so it is dropped instead of paid per granule.
const (
	cutoverRunLen    = 4
	cutoverShortRuns = 8
)

// --- batched classification hot path ---
//
// The paper pays 20-99x over native for byte-level shadowing; the batched
// path claws a large constant factor back by amortizing the two per-granule
// costs of the scalar reference: the first-level chunk lookup (now one per
// per-chunk span instead of one per granule) and the fully branchy
// classification (now one per run of granules in identical shadow state,
// counted n times). Workload accesses are overwhelmingly runs: a function
// streaming over a buffer leaves every byte with the same (writer,
// writerCall, reader, readerCall) tuple, so an 8-byte load classifies once,
// and a syscall marshalling 4KiB classifies a handful of times.

// readRange classifies the granule range [g0,g1] read by frame f at time
// now. It splits the range into per-chunk spans and classifies each with
// the run fast path; the retained scalar reference walks granule by
// granule instead so the two can be diffed.
//
//sigil:hot
func (c *classifier) readRange(f *segFrame, g0, g1, now uint64) {
	if c.scalar {
		for g := g0; inRange(g, g0, g1); g++ {
			c.readGranule(f, g, now, 1)
		}
		return
	}
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
// State changes within the span start the next run, so the worst case
// degrades to the scalar cost plus one comparison per granule; the cutover
// stops paying even that: once cutoverShortRuns consecutive runs come in
// under cutoverRunLen granules the span finishes granule-at-a-time.
//
//sigil:hot
func (c *classifier) readSpan(f *segFrame, ch *shadowChunk, idx, n uint32, now uint64) {
	c.spans++
	c.granules += uint64(n)
	objs := ch.objs[idx : idx+n]
	call32 := uint32(f.call)
	short := 0
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
		if j-i < cutoverRunLen {
			short++
			if short >= cutoverShortRuns && j < n {
				c.readSpanTail(f, ch, idx, j, n, now, call32)
				return
			}
		} else {
			short = 0
		}
		i = j
	}
}

// readSpanTail finishes a degenerate span granule-at-a-time. Classifying a
// length-k run as k single-granule runs produces the same aggregates (every
// counter adds bytes, and k×1 == 1×k), the same comm accumulation (bytes sum
// per (src,call) key, first encounters in the same order), and the same
// re-use updates (reuseRun's branches depend only on per-granule state), so
// the two paths stay byte-identical — the differential suite diffs them
// directly.
//
//sigil:hot
func (c *classifier) readSpanTail(f *segFrame, ch *shadowChunk, idx, i, n uint32, now uint64, call32 uint32) {
	objs := ch.objs[idx : idx+n]
	for k := i; k < n; k++ {
		st := objs[k]
		c.runs++
		c.classifyRun(f, st, 1)
		if ch.reuse != nil {
			c.reuseRun(f, ch.reuse[idx+k:idx+k+1], st, call32, now)
		}
		objs[k].reader = f.enc
		objs[k].readerCall = call32
	}
}

// classifyRun applies the scalar readGranule classification once for a run
// of `bytes` granules sharing the shadow state obj. It must mirror
// readGranule exactly; the differential and fuzz tests enforce that.
//
//sigil:hot
func (c *classifier) classifyRun(f *segFrame, obj shadowObj, bytes uint64) {
	sameReader := obj.reader == f.enc
	src := obj.writer
	if src == encInvalid {
		src = encStartup
	}
	if src == f.enc {
		if f.ctx >= 0 {
			s := &c.comm[f.ctx]
			if sameReader {
				s.LocalNonUnique += bytes
			} else {
				s.LocalUnique += bytes
			}
		}
		return
	}
	if f.ctx >= 0 {
		s := &c.comm[f.ctx]
		if sameReader {
			s.InputNonUnique += bytes
		} else {
			s.InputUnique += bytes
		}
	} else if f.enc == encKernel {
		c.kernelIn += bytes
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
		s := &c.comm[src-encBias]
		if sameReader {
			s.OutputNonUnique += bytes
		} else {
			s.OutputUnique += bytes
		}
	}
	e := c.edge(src, f.enc)
	if sameReader {
		e.NonUnique += bytes
	} else {
		e.Unique += bytes
	}
	if !sameReader && c.onComm != nil && f.ctx >= 0 {
		c.onComm(f, src, uint64(obj.writerCall), bytes)
	}
}

// reuseRun updates the re-use extension for one run. The branch structure
// of the scalar path is uniform across a run (the run key includes reader
// and readerCall), so it hoists here; the per-granule counters and
// timestamps still update individually.
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
	if c.scalar {
		for g := g0; inRange(g, g0, g1); g++ {
			c.writeGranule(enc, call, g, now)
		}
		return
	}
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

// --- retained scalar reference path ---

// readGranule classifies one granule read by frame f at time now, counting
// `bytes` toward the communication aggregates.
func (c *classifier) readGranule(f *segFrame, g, now, bytes uint64) {
	ch, idx := c.shadow.get(g)
	obj := &ch.objs[idx]
	// Unique vs non-unique follows the paper's mechanism exactly: "Sigil
	// checks if the reading FUNCTION is the last reader and if so counts
	// the read as non-unique" — the call number is not consulted for
	// uniqueness (it delimits re-use episodes below). This is what makes
	// a function's repeated sweeps over the same data count once.
	sameReader := obj.reader == f.enc
	sameCall := sameReader && obj.readerCall == uint32(f.call)

	src := obj.writer
	if src == encInvalid {
		src = encStartup
	}
	if src == f.enc {
		// Local: produced and read by the same function context.
		if f.ctx >= 0 {
			s := &c.comm[f.ctx]
			if sameReader {
				s.LocalNonUnique += bytes
			} else {
				s.LocalUnique += bytes
			}
		}
	} else {
		// Input to the reader, output of the producer.
		if f.ctx >= 0 {
			s := &c.comm[f.ctx]
			if sameReader {
				s.InputNonUnique += bytes
			} else {
				s.InputUnique += bytes
			}
		} else if f.enc == encKernel {
			c.kernelIn += bytes
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
			s := &c.comm[src-encBias]
			if sameReader {
				s.OutputNonUnique += bytes
			} else {
				s.OutputUnique += bytes
			}
		}
		e := c.edge(src, f.enc)
		if sameReader {
			e.NonUnique += bytes
		} else {
			e.Unique += bytes
		}
		if !sameReader && c.onComm != nil && f.ctx >= 0 {
			c.onComm(f, src, uint64(obj.writerCall), bytes)
		}
	}

	if ch.reuse != nil {
		ro := &ch.reuse[idx]
		if c.lineMode {
			// Line mode: global per-line access counting, no resets.
			if ro.count == 0 && ro.first == 0 {
				ro.first = now
			}
			ro.count++
			ro.last = now
		} else if sameCall {
			// Same function call re-reading the byte: the episode
			// continues (re-use lifetimes are per function call).
			ro.count++
			ro.last = now
		} else {
			if obj.reader != encInvalid {
				c.flushEpisode(obj.reader, ro)
			}
			ro.count = 0
			ro.first = now
			ro.last = now
		}
	}

	obj.reader = f.enc
	obj.readerCall = uint32(f.call)
}

// writeGranule records the producer of one granule.
func (c *classifier) writeGranule(enc uint32, call uint64, g, now uint64) {
	ch, idx := c.shadow.get(g)
	obj := &ch.objs[idx]
	obj.writer = enc
	obj.writerCall = uint32(call)
	if c.lineMode && ch.reuse != nil {
		ro := &ch.reuse[idx]
		if ro.count == 0 && ro.first == 0 {
			ro.first = now
		}
		ro.count++
		ro.last = now
	}
}

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

// growComm sizes the per-context aggregates for context id. An opGrow
// record precedes the first access by a newly entered context, so every
// context the shadow state can name (writer or reader) already has its
// slots.
func (c *classifier) growComm(id int) {
	for len(c.comm) <= id {
		c.comm = append(c.comm, CommStats{})
	}
	if c.trackReuse {
		for len(c.reuse) <= id {
			c.reuse = append(c.reuse, ReuseStats{})
		}
	}
}

// flushEpisode closes one re-use episode attributed to the encoded reader.
func (c *classifier) flushEpisode(readerEnc uint32, ro *reuseObj) {
	switch {
	case readerEnc >= encBias:
		c.reuse[readerEnc-encBias].recordEpisode(ro.count, ro.last-ro.first)
	case readerEnc == encKernel:
		c.kernelReuse.recordEpisode(ro.count, ro.last-ro.first)
	}
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
