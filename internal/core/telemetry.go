package core

import (
	"time"

	"sigil/internal/telemetry"
	"sigil/internal/tracing"
)

// sampleInto publishes the tool's live counters into m with atomic stores.
// It is called from the machine's StopCheck poll point (every
// vm.StopCheckInterval retired instructions) and once more after the run
// ends, always on the run goroutine — the single-writer side of the
// telemetry contract. Readers (heartbeat, /metrics, expvar) never touch
// the tool; they load the atomics.
//
// Cost: a pass over the per-context aggregates plus ~40 atomic stores,
// every 16K instructions — far below the per-instruction instrumentation
// work the poll interval already amortizes.
func (t *Tool) sampleInto(m *telemetry.Metrics) {
	var c CommStats
	for i := range t.comm {
		c.Add(t.comm[i])
	}

	m.InputUniqueBytes.Store(c.InputUnique)
	m.InputNonUniqueBytes.Store(c.InputNonUnique)
	m.OutputUniqueBytes.Store(c.OutputUnique)
	m.OutputNonUniqueBytes.Store(c.OutputNonUnique)
	m.LocalUniqueBytes.Store(c.LocalUnique)
	m.LocalNonUniqueBytes.Store(c.LocalNonUnique)

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

	sh := t.shadow
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

	m.ClassifySpans.Store(t.spans)
	m.ClassifyRuns.Store(t.runs)
	m.ClassifyGranules.Store(t.granules)

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
	m.Samples.Add(1)
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
