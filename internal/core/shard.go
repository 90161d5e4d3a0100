package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"sigil/internal/faultinject"
	"sigil/internal/tracing"
)

// classifyEngine is the pipelined, sharded classification engine behind
// Options.ClassifyWorkers.
//
// The interpreter goroutine appends access records (slab.go) instead of
// classifying; each worker goroutine owns the shadow chunks whose key hashes
// into its shard and drains published slabs against a shard-private
// classifier. Correctness rests on three facts the differential suite pins:
//
//   - A granule's classification depends only on that granule's shadow
//     state, and every access to a chunk routes to the same shard in
//     interpreter order (records are per-chunk sub-ranges), so each shard
//     replays exactly the inline per-granule history.
//   - Every aggregate a classifier updates is additive, so merging the
//     shard classifiers at the end of the run reproduces the inline totals
//     exactly (classifier.mergeFrom).
//   - Event-mode segment communication needs inline first-encounter
//     ordering; workers tag each accumulated (src, call) pair with the run
//     position (access sequence, granule offset) of its first contribution,
//     and the call-boundary barrier merges and sorts by that position —
//     which is precisely the order the inline path would have appended in.
//
// All engine fields without atomic types are owned by the interpreter
// goroutine (the telemetry sampler runs there too); workers communicate
// only through the slab channels, the barrier ack channel, and the atomic
// shard mirrors.
type classifyEngine struct {
	shards []*shardState

	// Interpreter-owned pipeline counters, surfaced through telemetry.
	seq               uint64 // access sequence numbers handed out
	appended          uint64 // records appended to slabs
	published         uint64 // slabs handed to workers
	stalls            uint64 // publishes that found the pipeline saturated
	barriers          uint64 // call-boundary barrier round-trips
	readsSinceBarrier uint64

	merged bool
	err    error // first worker failure, set at finish
	wg     sync.WaitGroup
}

// shardState is one shard: its slab channels, its private classifier, and
// the atomic mirror the interpreter-side sampler reads while the run is
// live. The non-mirror, non-channel fields are worker-owned once the worker
// starts and interpreter-owned again after finish's Wait.
type shardState struct {
	id int
	//sigil:owner interp
	cur  *recSlab      // interpreter-owned append target
	work chan *recSlab // published slabs, oldest first
	free chan *recSlab // drained slabs ready for reuse
	ack  chan []shardCommEntry

	//sigil:owner worker
	cls classifier
	//sigil:owner worker
	frame segFrame
	//sigil:owner worker
	seg map[commKey]segComm // per-segment comm accumulator (events mode)

	trace *tracing.Buf // per-shard span track; nil without tracing

	// Salvage accounting: idx is the cursor into the slab being drained
	// (so a panic knows how many records it lost), classified and dropped
	// partition every record this shard ever received.
	//
	//sigil:owner worker
	idx int
	//sigil:owner worker
	classified uint64
	//sigil:owner worker
	dropped uint64
	//sigil:owner worker
	err error

	mirror shardMirror
}

// shardMirror is the atomic shadow of a worker's progress, stored after
// every drained slab and loaded by the interpreter-side telemetry sampler
// and the shadow-chunk budget check. Accessed only via Load/Store (the
// atomicfield lint pass enforces this, and that the struct is never copied).
type shardMirror struct {
	drained atomic.Uint64
	dropped atomic.Uint64

	spans    atomic.Uint64
	runs     atomic.Uint64
	granules atomic.Uint64

	chunksAllocated atomic.Uint64
	chunksLive      atomic.Uint64
	cacheHits       atomic.Uint64
	cacheMisses     atomic.Uint64
	recycled        atomic.Uint64

	localU  atomic.Uint64
	localNU atomic.Uint64
	inU     atomic.Uint64
	inNU    atomic.Uint64
	outU    atomic.Uint64
	outNU   atomic.Uint64
}

// commKey identifies one producing (context, call) pair in a worker's
// per-segment communication accumulator.
type commKey struct {
	enc  uint32
	call uint64
}

type segComm struct {
	bytes uint64
	pos   runPos // position of the first contribution, for ordering
}

type shardCommEntry struct {
	key commKey
	segComm
}

//sigil:goroutine interp
func newClassifyEngine(t *Tool) *classifyEngine {
	e := &classifyEngine{
		shards: make([]*shardState, t.opts.ClassifyWorkers),
	}
	var rec *tracing.Recorder
	if t.opts.Trace != nil {
		rec = t.opts.Trace.Recorder()
	}
	for i := range e.shards {
		s := &shardState{
			id:   i,
			cur:  newRecSlab(),
			work: make(chan *recSlab, shardWorkDepth),
			free: make(chan *recSlab, shardSlabs),
			ack:  make(chan []shardCommEntry, 1),
		}
		for k := 0; k < shardSlabs-1; k++ {
			s.free <- newRecSlab()
		}
		// Pre-start boundary: the worker goroutine does not exist yet, so
		// initializing its state here cannot race.
		s.cls.init(t.opts, 0) //sigil:lint-allow shardown pre-start init, worker not launched yet
		if t.events != nil {
			s.seg = make(map[commKey]segComm) //sigil:lint-allow shardown pre-start init, worker not launched yet
			s.cls.onComm = s.captureComm      //sigil:lint-allow shardown pre-start init, worker not launched yet
		}
		if rec != nil {
			// The buffer is created here but handed to the worker before
			// first use; the goroutine start is the ownership transfer.
			s.trace = rec.Local(fmt.Sprintf("classify-%d", i))
		}
		e.shards[i] = s
		e.wg.Add(1)
		go e.runWorker(s)
	}
	return e
}

// recordAccess appends the access [g0,g1] as one record per chunk-sized
// sub-range, each routed to the shard owning its chunk.
//
//sigil:goroutine interp
//sigil:hot
func (e *classifyEngine) recordAccess(op uint8, enc uint32, call uint64, g0, g1, now uint64) {
	seq := e.seq
	e.seq++
	var off uint64
	for g := g0; inRange(g, g0, g1); {
		end := g | chunkMask
		if end > g1 {
			end = g1
		}
		s := e.shards[shardOf(g>>chunkBits, len(e.shards))]
		s.cur.recs = append(s.cur.recs, accessRec{
			g0:   g,
			now:  now,
			seq:  seq,
			off:  off,
			call: uint32(call),
			enc:  enc,
			n:    uint32(end - g + 1),
			op:   op,
		})
		e.appended++
		if len(s.cur.recs) == cap(s.cur.recs) {
			e.publish(s, false)
		}
		off += end - g + 1
		g = end + 1
	}
	if op == opRead {
		e.readsSinceBarrier++
	}
}

// publish hands the shard's current slab to its worker and takes a fresh
// one from the free list. Either side can saturate when the worker is
// behind; both count as a backpressure stall and note it in the flight
// recorder before blocking.
//
//sigil:goroutine interp
func (e *classifyEngine) publish(s *shardState, flush bool) {
	slab := s.cur
	slab.flush = flush
	select {
	case s.work <- slab:
	default:
		e.stalls++
		tracing.Flight().Record(tracing.KindStall, "core.classify", e.stalls, uint64(s.id))
		s.work <- slab
	}
	e.published++
	select {
	case s.cur = <-s.free:
	default:
		e.stalls++
		tracing.Flight().Record(tracing.KindStall, "core.classify", e.stalls, uint64(s.id))
		s.cur = <-s.free
	}
}

// drainSegment implements the call-boundary barrier: every shard drains its
// pending slabs, sends its per-segment comm accumulator, and the merged,
// position-sorted result is appended to dst in the inline first-encounter
// order. When no read record was appended since the last barrier no worker
// can hold segment communication, so the round-trip is skipped — leaf calls
// that never touch memory stay cheap.
//
//sigil:goroutine interp
func (e *classifyEngine) drainSegment(dst []commAcc) []commAcc {
	if e.readsSinceBarrier == 0 {
		return dst
	}
	e.readsSinceBarrier = 0
	e.barriers++
	for _, s := range e.shards {
		e.publish(s, true)
	}
	var entries []shardCommEntry
	for _, s := range e.shards {
		entries = append(entries, <-s.ack...)
	}
	if len(entries) == 0 {
		return dst
	}
	// The same producer pair can surface on several shards; bytes sum and
	// the earliest first-contribution position wins, so the sort below
	// reproduces the order the inline path appended in.
	out := entries[:0]
	idx := make(map[commKey]int, len(entries))
	for _, en := range entries {
		if j, ok := idx[en.key]; ok {
			out[j].bytes += en.bytes
			if en.pos.less(out[j].pos) {
				out[j].pos = en.pos
			}
			continue
		}
		idx[en.key] = len(out)
		out = append(out, en)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pos.less(out[j].pos) })
	for _, en := range out {
		dst = append(dst, commAcc{srcEnc: en.key.enc, srcCall: en.key.call, bytes: en.bytes})
	}
	return dst
}

// finish drains and joins every worker, surfaces the first worker failure,
// and merges the shard classifiers into the tool's canonical one. Safe to
// call from the salvage path: workers never wedge (their panics are
// recovered into dropped-record accounting), and a stray barrier ack left
// by an interrupted closeSegment is consumed here.
//
//sigil:goroutine interp
func (e *classifyEngine) finish(t *Tool) {
	if e.merged {
		return
	}
	for _, s := range e.shards {
		if len(s.cur.recs) > 0 {
			e.publish(s, false)
		}
		close(s.work)
	}
	e.wg.Wait()
	for _, s := range e.shards {
		select {
		case <-s.ack:
		default:
		}
		// Post-Wait boundary: every worker has exited, so its state is
		// interpreter-owned again for the merge.
		if s.err != nil && e.err == nil { //sigil:lint-allow shardown post-Wait merge, workers joined above
			e.err = fmt.Errorf("core: classification worker %d failed: %w", s.id, s.err)
		}
		t.classifier.mergeFrom(&s.cls) //sigil:lint-allow shardown post-Wait merge, workers joined above
	}
	e.merged = true
}

// accounting reports the salvage invariant counters: every record appended
// is eventually either drained (classified) or dropped, at any worker count
// and under any injected fault — the chaos suite asserts
// appended == drained + dropped on every run.
func (e *classifyEngine) accounting() (appended, drained, dropped uint64) {
	appended = e.appended
	for _, s := range e.shards {
		drained += s.mirror.drained.Load()
		dropped += s.mirror.dropped.Load()
	}
	return appended, drained, dropped
}

// shadowAllocated reports total shadow chunks ever materialized, including
// live shard tables, for the MaxShadowChunksHard budget check.
func (t *Tool) shadowAllocated() uint64 {
	n := t.shadow.allocated
	if e := t.engine; e != nil && !e.merged {
		for _, s := range e.shards {
			n += s.mirror.chunksAllocated.Load()
		}
	}
	return n
}

// --- worker side ---

//sigil:goroutine worker
func (e *classifyEngine) runWorker(s *shardState) {
	defer e.wg.Done()
	span := s.trace.Start("classify.worker", tracing.A("shard", s.id))
	var slabs uint64
	for slab := range s.work {
		slabs++
		s.drainSlab(slab)
		if slab.flush {
			s.ack <- s.takeSeg()
		}
		slab.recs = slab.recs[:0]
		slab.flush = false
		s.free <- slab
	}
	span.End(
		tracing.A("slabs", slabs),
		tracing.A("records", s.classified),
		tracing.A("dropped", s.dropped),
	)
}

// drainSlab classifies every record in the slab. A fault (injected at the
// ClassifyDrain point) or a panic stops this shard's classification — the
// failed record and everything after it count as dropped, the error is
// surfaced at finish — but the shard keeps consuming slabs and acking
// barriers so the pipeline never deadlocks and the other shards' work
// survives into the salvaged result.
//
//sigil:goroutine worker
func (s *shardState) drainSlab(slab *recSlab) {
	defer func() {
		if r := recover(); r != nil {
			s.fail(fmt.Errorf("core: classify shard %d: panic: %v", s.id, r))
			s.dropped += uint64(len(slab.recs) - s.idx)
		}
		s.syncMirror()
	}()
	recs := slab.recs
	for s.idx = 0; s.idx < len(recs); s.idx++ {
		if s.err != nil {
			s.dropped++
			continue
		}
		if err := faultinject.Fire(faultinject.ClassifyDrain); err != nil {
			s.fail(err)
			s.dropped++
			continue
		}
		s.apply(&recs[s.idx])
		s.classified++
	}
}

//sigil:goroutine worker
func (s *shardState) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

//sigil:goroutine worker
//sigil:hot
func (s *shardState) apply(rec *accessRec) {
	c := &s.cls
	g1 := rec.g0 + uint64(rec.n) - 1
	switch rec.op {
	case opRead:
		// Read records only originate from real stack frames (MemRead and
		// syscall input marshalling), so enc ≥ encBias always decodes to a
		// real context here. The 32-bit call matches the inline path: the
		// classifier only ever consumes uint32(call).
		s.frame = segFrame{ctx: int32(rec.enc - encBias), enc: rec.enc, call: uint64(rec.call)}
		c.pos = runPos{seq: rec.seq, off: rec.off}
		c.readRange(&s.frame, rec.g0, g1, rec.now)
	case opWrite:
		c.writeRange(rec.enc, uint64(rec.call), rec.g0, g1, rec.now)
	default: // opStartup
		c.markStartup(rec.g0, g1)
	}
}

// captureComm is the worker-side onComm hook: segment communication keyed
// by producer pair, first-contribution position retained for the barrier's
// deterministic ordering. Workers process records in per-shard interpreter
// order, so the first insertion is this shard's minimum position.
//
//sigil:goroutine worker
//sigil:hot
func (s *shardState) captureComm(_ *segFrame, srcEnc uint32, srcCall, bytes uint64) {
	k := commKey{enc: srcEnc, call: srcCall}
	if acc, ok := s.seg[k]; ok {
		acc.bytes += bytes
		s.seg[k] = acc
		return
	}
	s.seg[k] = segComm{bytes: bytes, pos: s.cls.pos}
}

//sigil:goroutine worker
func (s *shardState) takeSeg() []shardCommEntry {
	if len(s.seg) == 0 {
		return nil
	}
	out := make([]shardCommEntry, 0, len(s.seg))
	for k, v := range s.seg {
		out = append(out, shardCommEntry{key: k, segComm: v})
	}
	clear(s.seg)
	return out
}

// syncMirror publishes the shard's progress to the atomic mirror after each
// drained slab, so the interpreter-side sampler and budget check can watch
// live without touching worker-owned state.
//
//sigil:goroutine worker
func (s *shardState) syncMirror() {
	c := &s.cls
	m := &s.mirror
	m.drained.Store(s.classified)
	m.dropped.Store(s.dropped)
	m.spans.Store(c.spans)
	m.runs.Store(c.runs)
	m.granules.Store(c.granules)
	m.chunksAllocated.Store(c.shadow.allocated)
	m.chunksLive.Store(uint64(len(c.shadow.chunks)))
	m.cacheHits.Store(c.shadow.cacheHits)
	m.cacheMisses.Store(c.shadow.cacheMisses)
	m.recycled.Store(c.shadow.recycled)
	var sum CommStats
	for i := range c.comm {
		sum.Add(c.comm[i])
	}
	m.localU.Store(sum.LocalUnique)
	m.localNU.Store(sum.LocalNonUnique)
	m.inU.Store(sum.InputUnique)
	m.inNU.Store(sum.InputNonUnique)
	m.outU.Store(sum.OutputUnique)
	m.outNU.Store(sum.OutputNonUnique)
}
