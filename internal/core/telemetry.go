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
	m.Samples.Add(1)
}

// poll takes the sample of one machine poll point (every
// vm.StopCheckInterval retired instructions) into the run's metrics block
// and, on a traced run, onto the trace's sample timeline. While a worker
// classifies, the interpreter publishes only its own counters and leaves a
// sample record in the stream; the worker publishes the classifier's
// counters and records the sample when it reaches it (worker.sample). The
// poll then does not wait for the worker, and the sample still reads what
// inline classification would have at this point of the program. Each
// counter keeps one writer: the classifier's belong to the worker until
// the run ends.
//
// Cost: a pass over the per-context aggregates plus ~40 atomic stores,
// every 16K instructions — far below the per-instruction instrumentation
// work the poll interval already amortizes.
func (t *Tool) poll() {
	m := t.tel
	t.sampleRun(m)
	s := tracing.Sample{
		TimeNanos: time.Now().UnixNano(),
		Instrs:    m.Instrs.Load(),
		HeapBytes: m.HeapBytes.Load(),
		Events:    m.EventsEmitted.Load(),
	}
	if t.pipe != nil {
		t.send(record{op: opSample, addr: s.Instrs, n: s.HeapBytes, now: uint64(s.TimeNanos), call: s.Events})
		return
	}
	t.publish(m)
	m.Samples.Add(1)
	if b := t.opts.Trace; b != nil {
		s.ShadowBytes = m.ShadowBytesResident.Load()
		pollSample(b, s)
	}
}

// pollSample records a poll on the trace track b and in the flight
// recorder.
func pollSample(b *tracing.Buf, s tracing.Sample) {
	b.Sample(s)
	tracing.Flight().Record(tracing.KindPoll, "poll", s.Instrs, s.Events)
}

// sampleRun publishes the counters the interpreter goroutine owns: the
// substrate's, the trace's and the event sink's.
func (t *Tool) sampleRun(m *telemetry.Metrics) {
	live := t.sub.Live()
	m.Instrs.Store(live.Instrs)
	m.CallDepth.Store(uint64(live.CallDepth))
	m.Contexts.Store(uint64(live.Contexts))
	m.HeapBytes.Store(live.HeapBytes)
	m.MemPages.Store(uint64(live.MemPages))
	m.CacheAccesses.Store(live.Cache.Accesses)
	m.CacheL1Misses.Store(live.Cache.L1Misses)
	m.CacheLLMisses.Store(live.Cache.LLMisses)
	m.CachePrefetches.Store(live.Cache.Prefetches)
	m.Branches.Store(live.Branches)
	m.BranchMispredicts.Store(live.Mispredicts)
	m.ClassifyWaits.Store(t.waits)

	if b := t.opts.Trace; b != nil {
		m.TraceSpans.Store(b.Recorder().SpanCount())
		fl := tracing.Flight()
		m.FlightRecorded.Store(fl.Recorded())
		m.FlightOverwritten.Store(fl.Overwritten())
	}

	m.EventsEmitted.Store(t.emitted)
	if t.evStats != nil {
		ws := t.evStats()
		m.EventQueueDepth.Store(uint64(ws.QueueDepth))
		m.EventEmitStalls.Store(ws.Stalls)
		m.EventFrames.Store(ws.Frames)
		m.EventBytesCompressed.Store(ws.CompressedBytes)
		m.EventsDropped.Store(ws.Dropped)
		m.EventRetries.Store(ws.Retries)
		if ws.Degraded {
			m.EventSinkDegraded.Store(1)
		} else {
			m.EventSinkDegraded.Store(0)
		}
	}
}

// publish stores the classifier's counters: communication totals, the
// shadow table's footprint and the batching counters.
func (c *classifier) publish(m *telemetry.Metrics) {
	var cs CommStats
	for i := range c.comm {
		cs.Add(c.comm[i])
	}
	m.InputUniqueBytes.Store(cs.InputUnique)
	m.InputNonUniqueBytes.Store(cs.InputNonUnique)
	m.OutputUniqueBytes.Store(cs.OutputUnique)
	m.OutputNonUniqueBytes.Store(cs.OutputNonUnique)
	m.LocalUniqueBytes.Store(cs.LocalUnique)
	m.LocalNonUniqueBytes.Store(cs.LocalNonUnique)

	sh := c.shadow
	perChunk := sh.bytesPerChunk()
	resident := uint64(len(sh.chunks))
	m.ShadowChunksAllocated.Store(sh.allocated)
	m.ShadowChunksLive.Store(resident)
	m.ShadowChunksEvicted.Store(sh.evicted)
	m.ShadowChunksPeak.Store(uint64(sh.peakLive))
	m.ShadowBytesResident.Store(resident * perChunk)
	m.ShadowBytesPeak.Store(uint64(sh.peakLive) * perChunk)
	m.ShadowCacheHits.Store(sh.cacheHits)
	m.ShadowCacheMisses.Store(sh.cacheMisses)
	m.ShadowChunksRecycled.Store(sh.recycled)

	m.ClassifySpans.Store(c.spans)
	m.ClassifyRuns.Store(c.runs)
	m.ClassifyGranules.Store(c.granules)
}

// finalSnapshot takes the end-of-run sample and freezes it for the Result.
// m is the run's effective metrics block (the caller's, or the private one
// RunContext attached for a traced run) — when the caller supplied live
// Metrics the final sample lands there too, so /metrics keeps serving the
// finished run's totals. A nil m still yields a populated snapshot.
func finalSnapshot(tool *Tool, m *telemetry.Metrics, opts Options, start time.Time, wall time.Duration) *telemetry.Snapshot {
	if m == nil {
		m = &telemetry.Metrics{}
		m.BeginRun(start, opts.MaxInstrs, opts.MaxWall)
	}
	tool.sampleInto(m)
	snap := m.Snapshot()
	snap.WallNanos = int64(wall)
	return &snap
}
