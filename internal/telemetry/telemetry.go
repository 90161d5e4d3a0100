// Package telemetry gives long profiling runs a live view of themselves.
// Instrumented runs are ~100x slower than native, so a multi-minute profile
// that emits nothing until it finishes (or trips a budget) is a black box;
// this package turns it into an observable process at negligible cost.
//
// The design is single-writer/multi-reader: the run goroutine publishes
// counters with atomic stores from the interpreter's existing
// 16K-instruction poll point (so the hot dispatch loop itself pays
// nothing) — a run that classifies on a worker goroutine leaves the
// classification and shadow counters to the worker until the run ends, so
// each counter still has one writer at a time — and any number of readers — the progress heartbeat, the
// /metrics endpoint, expvar — take consistent-enough point-in-time
// snapshots with atomic loads. No locks, no channels, no allocation on the
// sampling path.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"
)

// Metrics is the shared live-counter block for one profiling process. All
// fields are owned by the sampler (the run goroutine, or its
// classification worker for the classification and shadow counters);
// readers must go through Snapshot. The zero value is ready to use.
type Metrics struct {
	// Run framing, stored by BeginRun.
	RunEpoch        atomic.Uint64 // runs begun in this process
	RunStartNanos   atomic.Int64  // wall-clock start of the current run
	BudgetInstrs    atomic.Uint64 // retired-instruction budget (0 = unlimited)
	BudgetWallNanos atomic.Int64  // wall-clock budget (0 = unlimited)

	// Interpreter progress.
	Instrs    atomic.Uint64 // instructions retired
	CallDepth atomic.Uint64 // live call-stack depth
	Contexts  atomic.Uint64 // calling contexts materialized
	HeapBytes atomic.Uint64 // bytes bump-allocated by the program
	MemPages  atomic.Uint64 // program memory pages materialized

	// Communication classification (the paper's two axes).
	InputUniqueBytes     atomic.Uint64
	InputNonUniqueBytes  atomic.Uint64
	OutputUniqueBytes    atomic.Uint64
	OutputNonUniqueBytes atomic.Uint64
	LocalUniqueBytes     atomic.Uint64
	LocalNonUniqueBytes  atomic.Uint64

	// Shadow memory footprint.
	ShadowChunksAllocated atomic.Uint64
	ShadowChunksLive      atomic.Uint64
	ShadowChunksEvicted   atomic.Uint64
	ShadowChunksPeak      atomic.Uint64
	ShadowBytesResident   atomic.Uint64
	ShadowBytesPeak       atomic.Uint64

	// Shadow lookup machinery: direct-mapped chunk-cache effectiveness and
	// buffer recycling under the FIFO limit.
	ShadowCacheHits      atomic.Uint64
	ShadowCacheMisses    atomic.Uint64
	ShadowChunksRecycled atomic.Uint64

	// Batched classifier amortization: per-chunk spans classified, the
	// state-uniform runs within them, and the granules those runs covered
	// (granules/runs is the average batching factor).
	ClassifySpans    atomic.Uint64
	ClassifyRuns     atomic.Uint64
	ClassifyGranules atomic.Uint64

	// ClassifyWaits counts the times the interpreter goroutine blocked on
	// the classification worker: no free batch at a hand-off, or a drain
	// for the shadow-chunk budget or at the end of the run that found
	// records not yet applied. It stays 0 on inline runs.
	ClassifyWaits atomic.Uint64

	// Event-file emission. EventsEmitted counts records accepted by the
	// sink; the rest mirror the async v3 writer's pipeline: batches queued
	// for the background encoder, Emit hand-offs that blocked on it, frames
	// written, and their on-wire (compressed) size.
	EventsEmitted        atomic.Uint64
	EventQueueDepth      atomic.Uint64
	EventEmitStalls      atomic.Uint64
	EventFrames          atomic.Uint64
	EventBytesCompressed atomic.Uint64

	// Event-sink failure handling: events the writer discarded instead of
	// persisting (exact loss), sink writes the retry layer repeated, and
	// whether a degraded-mode writer has started shedding (0/1).
	EventsDropped     atomic.Uint64
	EventRetries      atomic.Uint64
	EventSinkDegraded atomic.Uint64

	// Substrate simulation.
	CacheAccesses     atomic.Uint64
	CacheL1Misses     atomic.Uint64
	CacheLLMisses     atomic.Uint64
	CachePrefetches   atomic.Uint64
	Branches          atomic.Uint64
	BranchMispredicts atomic.Uint64

	// Run tracing: completed spans recorded by the tracing recorder, and
	// the flight-recorder ring's recorded/overwritten totals. Stored by the
	// poll-point sampler whenever a tracer is attached to the run.
	TraceSpans        atomic.Uint64
	FlightRecorded    atomic.Uint64
	FlightOverwritten atomic.Uint64

	// Samples counts sampler invocations (one per poll point).
	Samples atomic.Uint64
}

// BeginRun frames a new profiling run: progress counters reset and the
// run's budgets are published so heartbeats can report remaining headroom.
func (m *Metrics) BeginRun(start time.Time, budgetInstrs uint64, budgetWall time.Duration) {
	m.RunEpoch.Add(1)
	m.RunStartNanos.Store(start.UnixNano())
	m.BudgetInstrs.Store(budgetInstrs)
	m.BudgetWallNanos.Store(int64(budgetWall))

	for _, c := range []*atomic.Uint64{
		&m.Instrs, &m.CallDepth, &m.Contexts, &m.HeapBytes, &m.MemPages,
		&m.InputUniqueBytes, &m.InputNonUniqueBytes,
		&m.OutputUniqueBytes, &m.OutputNonUniqueBytes,
		&m.LocalUniqueBytes, &m.LocalNonUniqueBytes,
		&m.ShadowChunksAllocated, &m.ShadowChunksLive, &m.ShadowChunksEvicted,
		&m.ShadowChunksPeak, &m.ShadowBytesResident, &m.ShadowBytesPeak,
		&m.ShadowCacheHits, &m.ShadowCacheMisses, &m.ShadowChunksRecycled,
		&m.ClassifySpans, &m.ClassifyRuns, &m.ClassifyGranules, &m.ClassifyWaits,
		&m.EventsEmitted, &m.EventQueueDepth, &m.EventEmitStalls,
		&m.EventFrames, &m.EventBytesCompressed,
		&m.EventsDropped, &m.EventRetries, &m.EventSinkDegraded,
		&m.CacheAccesses, &m.CacheL1Misses, &m.CacheLLMisses, &m.CachePrefetches,
		&m.Branches, &m.BranchMispredicts,
		&m.TraceSpans, &m.FlightRecorded, &m.FlightOverwritten,
	} {
		c.Store(0)
	}
}

// Snapshot returns a point-in-time copy of every counter. Individual loads
// are atomic; the snapshot as a whole is only as consistent as a running
// sampler allows, which is exactly what a progress view needs.
func (m *Metrics) Snapshot() Snapshot {
	return Snapshot{
		RunEpoch:        m.RunEpoch.Load(),
		RunStartNanos:   m.RunStartNanos.Load(),
		BudgetInstrs:    m.BudgetInstrs.Load(),
		BudgetWallNanos: m.BudgetWallNanos.Load(),

		Instrs:    m.Instrs.Load(),
		CallDepth: m.CallDepth.Load(),
		Contexts:  m.Contexts.Load(),
		HeapBytes: m.HeapBytes.Load(),
		MemPages:  m.MemPages.Load(),

		InputUniqueBytes:     m.InputUniqueBytes.Load(),
		InputNonUniqueBytes:  m.InputNonUniqueBytes.Load(),
		OutputUniqueBytes:    m.OutputUniqueBytes.Load(),
		OutputNonUniqueBytes: m.OutputNonUniqueBytes.Load(),
		LocalUniqueBytes:     m.LocalUniqueBytes.Load(),
		LocalNonUniqueBytes:  m.LocalNonUniqueBytes.Load(),

		ShadowChunksAllocated: m.ShadowChunksAllocated.Load(),
		ShadowChunksLive:      m.ShadowChunksLive.Load(),
		ShadowChunksEvicted:   m.ShadowChunksEvicted.Load(),
		ShadowChunksPeak:      m.ShadowChunksPeak.Load(),
		ShadowBytesResident:   m.ShadowBytesResident.Load(),
		ShadowBytesPeak:       m.ShadowBytesPeak.Load(),

		ShadowCacheHits:      m.ShadowCacheHits.Load(),
		ShadowCacheMisses:    m.ShadowCacheMisses.Load(),
		ShadowChunksRecycled: m.ShadowChunksRecycled.Load(),

		ClassifySpans:    m.ClassifySpans.Load(),
		ClassifyRuns:     m.ClassifyRuns.Load(),
		ClassifyGranules: m.ClassifyGranules.Load(),
		ClassifyWaits:    m.ClassifyWaits.Load(),

		EventsEmitted:        m.EventsEmitted.Load(),
		EventQueueDepth:      m.EventQueueDepth.Load(),
		EventEmitStalls:      m.EventEmitStalls.Load(),
		EventFrames:          m.EventFrames.Load(),
		EventBytesCompressed: m.EventBytesCompressed.Load(),
		EventsDropped:        m.EventsDropped.Load(),
		EventRetries:         m.EventRetries.Load(),
		EventSinkDegraded:    m.EventSinkDegraded.Load(),

		CacheAccesses:     m.CacheAccesses.Load(),
		CacheL1Misses:     m.CacheL1Misses.Load(),
		CacheLLMisses:     m.CacheLLMisses.Load(),
		CachePrefetches:   m.CachePrefetches.Load(),
		Branches:          m.Branches.Load(),
		BranchMispredicts: m.BranchMispredicts.Load(),

		TraceSpans:        m.TraceSpans.Load(),
		FlightRecorded:    m.FlightRecorded.Load(),
		FlightOverwritten: m.FlightOverwritten.Load(),

		Samples: m.Samples.Load(),
	}
}

// Snapshot is one frozen view of the counters, the form that travels: it
// hangs off core.Result, renders as human text, JSON, and Prometheus text
// format, and backs the expvar export.
type Snapshot struct {
	RunEpoch        uint64 `json:"run_epoch"`
	RunStartNanos   int64  `json:"run_start_nanos"`
	BudgetInstrs    uint64 `json:"budget_instrs,omitempty"`
	BudgetWallNanos int64  `json:"budget_wall_nanos,omitempty"`

	Instrs    uint64 `json:"instrs"`
	CallDepth uint64 `json:"call_depth"`
	Contexts  uint64 `json:"contexts"`
	HeapBytes uint64 `json:"heap_bytes"`
	MemPages  uint64 `json:"mem_pages"`

	InputUniqueBytes     uint64 `json:"input_unique_bytes"`
	InputNonUniqueBytes  uint64 `json:"input_nonunique_bytes"`
	OutputUniqueBytes    uint64 `json:"output_unique_bytes"`
	OutputNonUniqueBytes uint64 `json:"output_nonunique_bytes"`
	LocalUniqueBytes     uint64 `json:"local_unique_bytes"`
	LocalNonUniqueBytes  uint64 `json:"local_nonunique_bytes"`

	ShadowChunksAllocated uint64 `json:"shadow_chunks_allocated"`
	ShadowChunksLive      uint64 `json:"shadow_chunks_live"`
	ShadowChunksEvicted   uint64 `json:"shadow_chunks_evicted"`
	ShadowChunksPeak      uint64 `json:"shadow_chunks_peak"`
	ShadowBytesResident   uint64 `json:"shadow_bytes_resident"`
	ShadowBytesPeak       uint64 `json:"shadow_bytes_peak"`

	ShadowCacheHits      uint64 `json:"shadow_cache_hits"`
	ShadowCacheMisses    uint64 `json:"shadow_cache_misses"`
	ShadowChunksRecycled uint64 `json:"shadow_chunks_recycled"`

	ClassifySpans    uint64 `json:"classify_spans"`
	ClassifyRuns     uint64 `json:"classify_runs"`
	ClassifyGranules uint64 `json:"classify_granules"`
	ClassifyWaits    uint64 `json:"classify_waits"`

	EventsEmitted        uint64 `json:"events_emitted"`
	EventQueueDepth      uint64 `json:"event_queue_depth"`
	EventEmitStalls      uint64 `json:"event_emit_stalls"`
	EventFrames          uint64 `json:"event_frames"`
	EventBytesCompressed uint64 `json:"event_bytes_compressed"`
	EventsDropped        uint64 `json:"events_dropped"`
	EventRetries         uint64 `json:"event_retries"`
	EventSinkDegraded    uint64 `json:"event_sink_degraded"`

	CacheAccesses     uint64 `json:"cache_accesses"`
	CacheL1Misses     uint64 `json:"cache_l1_misses"`
	CacheLLMisses     uint64 `json:"cache_ll_misses"`
	CachePrefetches   uint64 `json:"cache_prefetches"`
	Branches          uint64 `json:"branches"`
	BranchMispredicts uint64 `json:"branch_mispredicts"`

	TraceSpans        uint64 `json:"trace_spans"`
	FlightRecorded    uint64 `json:"flight_recorded"`
	FlightOverwritten uint64 `json:"flight_overwritten"`

	Samples uint64 `json:"samples"`

	// WallNanos is the run's wall-clock duration, filled in when the run
	// completes (zero on live snapshots).
	WallNanos int64 `json:"wall_nanos,omitempty"`
}

// TotalCommBytes sums the six classification axes.
func (s Snapshot) TotalCommBytes() uint64 {
	return s.InputUniqueBytes + s.InputNonUniqueBytes +
		s.OutputUniqueBytes + s.OutputNonUniqueBytes +
		s.LocalUniqueBytes + s.LocalNonUniqueBytes
}

// InstrsPerSec estimates throughput over the run so far (or the whole run,
// once WallNanos is set).
func (s Snapshot) InstrsPerSec(now time.Time) float64 {
	elapsed := s.WallNanos
	if elapsed == 0 && s.RunStartNanos > 0 {
		elapsed = now.UnixNano() - s.RunStartNanos
	}
	if elapsed <= 0 {
		return 0
	}
	return float64(s.Instrs) / (float64(elapsed) / float64(time.Second))
}

// Text renders the snapshot as a human-readable block, the form the CLI
// tools print behind -telemetry-dump. Every Snapshot field appears with
// its raw value (a reconciliation test pins text ≡ Snapshot fields); the
// derived MiB and duration forms are decoration on top, never replacements.
func (s Snapshot) Text() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "instrs %d  contexts %d  depth %d  samples %d\n",
		s.Instrs, s.Contexts, s.CallDepth, s.Samples)
	fmt.Fprintf(&sb, "run: epoch %d  start_nanos %d  budget_instrs %d  budget_wall_nanos %d\n",
		s.RunEpoch, s.RunStartNanos, s.BudgetInstrs, s.BudgetWallNanos)
	fmt.Fprintf(&sb, "comm bytes: in %d+%d  out %d+%d  local %d+%d (unique+repeat)\n",
		s.InputUniqueBytes, s.InputNonUniqueBytes,
		s.OutputUniqueBytes, s.OutputNonUniqueBytes,
		s.LocalUniqueBytes, s.LocalNonUniqueBytes)
	fmt.Fprintf(&sb, "shadow: %d chunks live (allocated %d, peak %d, evicted %d, recycled %d)\n",
		s.ShadowChunksLive, s.ShadowChunksAllocated, s.ShadowChunksPeak,
		s.ShadowChunksEvicted, s.ShadowChunksRecycled)
	fmt.Fprintf(&sb, "shadow bytes: %d resident (%.1f MiB), %d peak; cache %d hits, %d misses\n",
		s.ShadowBytesResident, float64(s.ShadowBytesResident)/(1<<20),
		s.ShadowBytesPeak, s.ShadowCacheHits, s.ShadowCacheMisses)
	fmt.Fprintf(&sb, "classify: %d spans, %d runs, %d granules, %d waits on the worker\n",
		s.ClassifySpans, s.ClassifyRuns, s.ClassifyGranules, s.ClassifyWaits)
	fmt.Fprintf(&sb, "sim: %d accesses, %d L1 misses, %d LL misses, %d prefetches, %d/%d branches mispredicted\n",
		s.CacheAccesses, s.CacheL1Misses, s.CacheLLMisses, s.CachePrefetches,
		s.BranchMispredicts, s.Branches)
	fmt.Fprintf(&sb, "events emitted: %d (%d frames, %d bytes compressed, %d stalls, queue depth %d)\n",
		s.EventsEmitted, s.EventFrames, s.EventBytesCompressed,
		s.EventEmitStalls, s.EventQueueDepth)
	fmt.Fprintf(&sb, "sink: %d dropped, %d retries, degraded=%d\n",
		s.EventsDropped, s.EventRetries, s.EventSinkDegraded)
	fmt.Fprintf(&sb, "tracing: %d spans, flight %d recorded / %d overwritten\n",
		s.TraceSpans, s.FlightRecorded, s.FlightOverwritten)
	fmt.Fprintf(&sb, "heap %d bytes (%.1f MiB), %d pages\n",
		s.HeapBytes, float64(s.HeapBytes)/(1<<20), s.MemPages)
	fmt.Fprintf(&sb, "wall_nanos %d", s.WallNanos)
	if s.WallNanos > 0 {
		fmt.Fprintf(&sb, " (%s, %.0f instrs/sec)",
			time.Duration(s.WallNanos), s.InstrsPerSec(time.Time{}))
	}
	sb.WriteByte('\n')
	return sb.String()
}

// JSON renders the snapshot as a single JSON object.
func (s Snapshot) JSON() ([]byte, error) { return json.Marshal(s) }

// promMetric is one exported series: Prometheus text-format metadata plus
// the value extractor.
type promMetric struct {
	name  string
	kind  string // "counter" or "gauge"
	help  string
	value func(Snapshot) uint64
}

var promMetrics = []promMetric{
	{"sigil_instructions_total", "counter", "Instructions retired by the current run", func(s Snapshot) uint64 { return s.Instrs }},
	{"sigil_contexts", "gauge", "Calling contexts materialized", func(s Snapshot) uint64 { return s.Contexts }},
	{"sigil_call_depth", "gauge", "Live call-stack depth", func(s Snapshot) uint64 { return s.CallDepth }},
	{"sigil_heap_bytes", "gauge", "Program heap bytes bump-allocated", func(s Snapshot) uint64 { return s.HeapBytes }},
	{"sigil_mem_pages", "gauge", "Program memory pages materialized", func(s Snapshot) uint64 { return s.MemPages }},
	{"sigil_comm_input_unique_bytes_total", "counter", "Unique bytes read from other producers", func(s Snapshot) uint64 { return s.InputUniqueBytes }},
	{"sigil_comm_input_nonunique_bytes_total", "counter", "Repeat bytes read from other producers", func(s Snapshot) uint64 { return s.InputNonUniqueBytes }},
	{"sigil_comm_output_unique_bytes_total", "counter", "Unique bytes consumed from this producer", func(s Snapshot) uint64 { return s.OutputUniqueBytes }},
	{"sigil_comm_output_nonunique_bytes_total", "counter", "Repeat bytes consumed from this producer", func(s Snapshot) uint64 { return s.OutputNonUniqueBytes }},
	{"sigil_comm_local_unique_bytes_total", "counter", "Unique bytes read by their own producer", func(s Snapshot) uint64 { return s.LocalUniqueBytes }},
	{"sigil_comm_local_nonunique_bytes_total", "counter", "Repeat bytes read by their own producer", func(s Snapshot) uint64 { return s.LocalNonUniqueBytes }},
	{"sigil_shadow_chunks_allocated_total", "counter", "Shadow chunks ever materialized", func(s Snapshot) uint64 { return s.ShadowChunksAllocated }},
	{"sigil_shadow_chunks_live", "gauge", "Shadow chunks currently resident", func(s Snapshot) uint64 { return s.ShadowChunksLive }},
	{"sigil_shadow_chunks_evicted_total", "counter", "Shadow chunks dropped by the FIFO limit", func(s Snapshot) uint64 { return s.ShadowChunksEvicted }},
	{"sigil_shadow_chunks_peak", "gauge", "Peak shadow chunks resident", func(s Snapshot) uint64 { return s.ShadowChunksPeak }},
	{"sigil_shadow_bytes_resident", "gauge", "Shadow memory bytes currently resident", func(s Snapshot) uint64 { return s.ShadowBytesResident }},
	{"sigil_shadow_bytes_peak", "gauge", "Peak shadow memory bytes", func(s Snapshot) uint64 { return s.ShadowBytesPeak }},
	{"sigil_shadow_cache_hits_total", "counter", "Chunk lookups served by the direct-mapped cache", func(s Snapshot) uint64 { return s.ShadowCacheHits }},
	{"sigil_shadow_cache_misses_total", "counter", "Chunk lookups that fell through to the map", func(s Snapshot) uint64 { return s.ShadowCacheMisses }},
	{"sigil_shadow_chunks_recycled_total", "counter", "Chunk materializations served by an evicted chunk buffer", func(s Snapshot) uint64 { return s.ShadowChunksRecycled }},
	{"sigil_classify_spans_total", "counter", "Per-chunk spans classified by the batched path", func(s Snapshot) uint64 { return s.ClassifySpans }},
	{"sigil_classify_runs_total", "counter", "State-uniform runs classified by the batched path", func(s Snapshot) uint64 { return s.ClassifyRuns }},
	{"sigil_classify_granules_total", "counter", "Granules covered by batched classification runs", func(s Snapshot) uint64 { return s.ClassifyGranules }},
	{"sigil_classify_waits_total", "counter", "Times the interpreter blocked on the classification worker", func(s Snapshot) uint64 { return s.ClassifyWaits }},
	{"sigil_events_emitted_total", "counter", "Event-file records emitted", func(s Snapshot) uint64 { return s.EventsEmitted }},
	{"sigil_event_queue_depth", "gauge", "Event batches queued for the background encoder", func(s Snapshot) uint64 { return s.EventQueueDepth }},
	{"sigil_event_emit_stalls_total", "counter", "Event emissions that blocked on the encoder", func(s Snapshot) uint64 { return s.EventEmitStalls }},
	{"sigil_event_frames_total", "counter", "Event-file frames written", func(s Snapshot) uint64 { return s.EventFrames }},
	{"sigil_event_bytes_compressed_total", "counter", "Event-file bytes on the wire after compression", func(s Snapshot) uint64 { return s.EventBytesCompressed }},
	{"sigil_events_dropped_total", "counter", "Event-file records discarded by the degraded sink (exact loss)", func(s Snapshot) uint64 { return s.EventsDropped }},
	{"sigil_event_retries_total", "counter", "Event-sink writes repeated by the retry layer", func(s Snapshot) uint64 { return s.EventRetries }},
	{"sigil_event_sink_degraded", "gauge", "Whether the event sink has started shedding events (0/1)", func(s Snapshot) uint64 { return s.EventSinkDegraded }},
	{"sigil_cache_accesses_total", "counter", "Simulated cache accesses", func(s Snapshot) uint64 { return s.CacheAccesses }},
	{"sigil_cache_l1_misses_total", "counter", "Simulated L1 misses", func(s Snapshot) uint64 { return s.CacheL1Misses }},
	{"sigil_cache_ll_misses_total", "counter", "Simulated last-level misses", func(s Snapshot) uint64 { return s.CacheLLMisses }},
	{"sigil_cache_prefetches_total", "counter", "Simulated prefetches issued", func(s Snapshot) uint64 { return s.CachePrefetches }},
	{"sigil_branches_total", "counter", "Simulated conditional branches", func(s Snapshot) uint64 { return s.Branches }},
	{"sigil_branch_mispredicts_total", "counter", "Simulated branch mispredictions", func(s Snapshot) uint64 { return s.BranchMispredicts }},
	{"sigil_trace_spans_total", "counter", "Completed tracing spans recorded this run", func(s Snapshot) uint64 { return s.TraceSpans }},
	{"sigil_flight_events_total", "counter", "Events recorded into the flight-recorder ring", func(s Snapshot) uint64 { return s.FlightRecorded }},
	{"sigil_flight_overwritten_total", "counter", "Flight-recorder events lost to ring wraparound", func(s Snapshot) uint64 { return s.FlightOverwritten }},
	{"sigil_samples_total", "counter", "Telemetry sampler invocations", func(s Snapshot) uint64 { return s.Samples }},
	{"sigil_run_epoch", "gauge", "Profiling runs begun in this process", func(s Snapshot) uint64 { return s.RunEpoch }},
	{"sigil_budget_instructions", "gauge", "Retired-instruction budget (0 = unlimited)", func(s Snapshot) uint64 { return s.BudgetInstrs }},
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4), one HELP/TYPE/sample triplet per series.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	for _, m := range promMetrics {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n",
			m.name, m.help, m.name, m.kind, m.name, m.value(s)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# HELP sigil_run_start_seconds Wall-clock start of the current run\n"+
		"# TYPE sigil_run_start_seconds gauge\nsigil_run_start_seconds %.3f\n",
		float64(s.RunStartNanos)/float64(time.Second)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "# HELP sigil_budget_wall_seconds Wall-clock budget in seconds (0 = unlimited)\n"+
		"# TYPE sigil_budget_wall_seconds gauge\nsigil_budget_wall_seconds %.3f\n",
		float64(s.BudgetWallNanos)/float64(time.Second))
	return err
}
