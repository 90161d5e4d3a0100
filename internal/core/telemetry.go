package core

import (
	"time"

	"sigil/internal/telemetry"
	"sigil/internal/tracing"
)

// sampleInto publishes all of the tool's live counters into m with atomic
// stores, once the run has ended and any worker is joined; poll takes the
// samples during the run. It runs on the run goroutine — the single-writer
// side of the telemetry contract; readers (heartbeat, /metrics, expvar)
// never touch the tool, they load the atomics.
func (t *Tool) sampleInto(m *telemetry.Metrics) {
	t.sampleRun(m)
	t.publish(m)
	m.Add(telemetry.Samples, 1)
}

// poll takes the sample of one machine poll point (every
// vm.StopCheckInterval retired instructions) into the run's metrics block
// and, on a traced run, onto the trace's sample timeline. While a worker
// classifies, the interpreter publishes only its own counters and leaves a
// sample record in the stream; the worker publishes the classifier's
// counters, the cache and event counters among them, and records the sample
// when it reaches it. The poll then does not wait for the worker, and the
// sample still reads what inline classification would have at this point of
// the program. Each counter keeps one writer: the classifier's belong to the
// worker until the run ends.
//
// Cost: a pass over the per-context aggregates plus ~40 atomic stores,
// every 16K instructions — far below the per-instruction instrumentation
// work the poll interval already amortizes.
func (t *Tool) poll() {
	m := t.tel
	t.sampleRun(m)
	r := record{
		op:   opSample,
		addr: m.Load(telemetry.Instrs),
		n:    m.Load(telemetry.HeapBytes),
		now:  uint64(time.Now().UnixNano()),
	}
	if t.pipe != nil {
		t.send(r)
		return
	}
	t.sample(m, t.opts.Trace, &r)
}

// sample completes the poll-point sample r stands for: it publishes the
// classifier's counters as they are at r's place in the program, and on a
// traced run records the poll on track b's sample timeline.
func (c *classifier) sample(m *telemetry.Metrics, b *tracing.Buf, r *record) {
	c.publish(m)
	m.Add(telemetry.Samples, 1)
	b.Sample(tracing.Sample{
		TimeNanos:           int64(r.now),
		Instrs:              r.addr,
		HeapBytes:           r.n,
		ShadowBytesResident: m.Load(telemetry.ShadowBytesResident),
		EventsEmitted:       c.emitted,
	})
}

// sampleRun publishes the counters the interpreter goroutine owns: the
// substrate's, except its cache counters, and the trace's.
func (t *Tool) sampleRun(m *telemetry.Metrics) {
	live := t.sub.Live()
	m.Store(telemetry.Instrs, live.Instrs)
	m.Store(telemetry.CallDepth, uint64(live.CallDepth))
	m.Store(telemetry.Contexts, uint64(live.Contexts))
	m.Store(telemetry.HeapBytes, live.HeapBytes)
	m.Store(telemetry.MemPages, uint64(live.MemPages))
	m.Store(telemetry.Branches, live.Branches)
	m.Store(telemetry.BranchMispredicts, live.Mispredicts)
	m.Store(telemetry.ClassifyWaits, t.waits)

	if b := t.opts.Trace; b != nil {
		m.Store(telemetry.TraceSpans, b.Recorder().SpanCount())
		fl := tracing.Flight()
		m.Store(telemetry.FlightRecorded, fl.Recorded())
		m.Store(telemetry.FlightOverwritten, fl.Overwritten())
	}
}

// publish stores the classifier's counters: communication totals, the
// shadow table's footprint, the batching counters, the substrate's cache
// counters and the event counters.
// The event sink's pipeline counters follow Emit: they are read on the
// goroutine that calls it, since a trace.Writer counts accepted events
// unsynchronised.
func (c *classifier) publish(m *telemetry.Metrics) {
	var cs CommStats
	for i := range c.comm {
		cs.Add(c.comm[i])
	}
	m.Store(telemetry.InputUniqueBytes, cs.InputUnique)
	m.Store(telemetry.InputNonUniqueBytes, cs.InputNonUnique)
	m.Store(telemetry.OutputUniqueBytes, cs.OutputUnique)
	m.Store(telemetry.OutputNonUniqueBytes, cs.OutputNonUnique)
	m.Store(telemetry.LocalUniqueBytes, cs.LocalUnique)
	m.Store(telemetry.LocalNonUniqueBytes, cs.LocalNonUnique)

	sh := c.shadow
	perChunk := sh.bytesPerChunk()
	resident := uint64(len(sh.chunks))
	m.Store(telemetry.ShadowChunksAllocated, sh.allocated)
	m.Store(telemetry.ShadowChunksLive, resident)
	m.Store(telemetry.ShadowChunksEvicted, sh.evicted)
	m.Store(telemetry.ShadowChunksPeak, uint64(sh.peakLive))
	m.Store(telemetry.ShadowBytesResident, resident*perChunk)
	m.Store(telemetry.ShadowBytesPeak, uint64(sh.peakLive)*perChunk)
	m.Store(telemetry.ShadowCacheHits, sh.cacheHits)
	m.Store(telemetry.ShadowCacheMisses, sh.cacheMisses)
	m.Store(telemetry.ShadowChunksRecycled, sh.recycled)
	m.Store(telemetry.ShadowChunksStocked, sh.stocked)

	m.Store(telemetry.ClassifySpans, c.spans)
	m.Store(telemetry.ClassifyRuns, c.runs)
	m.Store(telemetry.ClassifyGranules, c.granules)

	cache := c.caches.Stats()
	m.Store(telemetry.CacheAccesses, cache.Accesses)
	m.Store(telemetry.CacheL1Misses, cache.L1Misses)
	m.Store(telemetry.CacheLLMisses, cache.LLMisses)
	m.Store(telemetry.CachePrefetches, cache.Prefetches)

	m.Store(telemetry.EventsEmitted, c.emitted)
	if c.evStats != nil {
		ws := c.evStats()
		m.Store(telemetry.EventQueueDepth, uint64(ws.QueueDepth))
		m.Store(telemetry.EventEmitStalls, ws.Stalls)
		m.Store(telemetry.EventFrames, ws.Frames)
		m.Store(telemetry.EventBytesCompressed, ws.CompressedBytes)
		m.Store(telemetry.EventsDropped, ws.Dropped)
		m.Store(telemetry.EventRetries, ws.Retries)
		if ws.Degraded {
			m.Store(telemetry.EventSinkDegraded, 1)
		} else {
			m.Store(telemetry.EventSinkDegraded, 0)
		}
	}
}

// finalSnapshot takes the end-of-run sample, with the run's wall time, and
// freezes it for the Result. m is the run's effective metrics block (the
// caller's, or the private one RunContext attached for a traced run) — when
// the caller supplied live Metrics the final sample lands there too, so
// /metrics keeps serving the finished run's totals and a command's run
// report reads them there whether or not the run succeeded. A nil m still
// yields a populated snapshot.
func finalSnapshot(tool *Tool, m *telemetry.Metrics, opts Options, start time.Time, wall time.Duration) *telemetry.Snapshot {
	if m == nil {
		m = &telemetry.Metrics{}
		m.BeginRun(start, opts.MaxInstrs, opts.MaxWall)
	}
	tool.sampleInto(m)
	m.Store(telemetry.WallNanos, uint64(wall))
	snap := m.Snapshot()
	return &snap
}
