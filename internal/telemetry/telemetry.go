// Package telemetry gives long profiling runs a live view of themselves.
// Instrumented runs are ~100x slower than native, so a multi-minute profile
// that emits nothing until it finishes (or trips a budget) is a black box;
// this package turns it into an observable process at negligible cost.
//
// Every counter is declared once, as a row of the counters table: its JSON
// key, Prometheus series, kind, help text and the layer of the run that
// produces it. A Counter constant indexes the rows, the atomic slots of
// Metrics and the values of a Snapshot; the reset in BeginRun, Snapshot,
// the text dump, JSON and Prometheus output are loops over the table.
// Adding a counter takes one row plus the line in core that samples it.
//
// The design is single-writer/multi-reader: the run goroutine publishes
// counters with atomic stores from the interpreter's existing
// 16K-instruction poll point (so the hot dispatch loop itself pays
// nothing) — a run that classifies on a worker goroutine leaves the
// classification and shadow counters to the worker until the run ends, so
// each counter still has one writer at a time — and any number of readers
// — the progress heartbeat, the /metrics endpoint, expvar — take
// consistent-enough point-in-time snapshots with atomic loads. No locks, no
// channels, no allocation on the sampling path.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Counter indexes one row of the counters table.
type Counter int

// The counters, grouped by layer in the order the text dump prints them.
const (
	Instrs Counter = iota
	CallDepth
	HeapBytes
	MemPages

	Contexts
	CacheAccesses
	CacheL1Misses
	CacheLLMisses
	CachePrefetches
	Branches
	BranchMispredicts

	InputUniqueBytes
	InputNonUniqueBytes
	OutputUniqueBytes
	OutputNonUniqueBytes
	LocalUniqueBytes
	LocalNonUniqueBytes
	ShadowChunksAllocated
	ShadowChunksLive
	ShadowChunksEvicted
	ShadowChunksPeak
	ShadowBytesResident
	ShadowBytesPeak
	ShadowCacheHits
	ShadowCacheMisses
	ShadowChunksRecycled
	ShadowChunksStocked
	ClassifySpans
	ClassifyRuns
	ClassifyGranules
	ClassifyWaits

	EventsEmitted
	EventQueueDepth
	EventEmitStalls
	EventFrames
	EventBytesCompressed
	EventsDropped
	EventRetries
	EventSinkDegraded

	TraceSpans
	FlightRecorded
	FlightOverwritten

	RunEpoch
	RunStartNanos
	BudgetInstrs
	BudgetWallNanos
	Samples
	WallNanos

	numCounters
)

// counter describes one row of the table.
type counter struct {
	key      string // JSON key and text-dump label
	prom     string // Prometheus series; a _seconds series exports nanoseconds as seconds
	kind     string // Prometheus TYPE: "counter" (a _total series) or "gauge"
	layer    string // the layer of the run that produces it, one of layers
	help     string
	omitZero bool // leave the JSON key out when zero (unlimited budget, live snapshot)
}

// layers are the layers of a run, in the order the text dump prints them.
var layers = []string{"vm", "callgrind", "sigil", "events", "trace", "run"}

var counters = [numCounters]counter{
	Instrs:    {key: "instrs", prom: "sigil_instructions_total", kind: "counter", layer: "vm", help: "Instructions retired by the current run"},
	CallDepth: {key: "call_depth", prom: "sigil_call_depth", kind: "gauge", layer: "vm", help: "Live call-stack depth"},
	HeapBytes: {key: "heap_bytes", prom: "sigil_heap_bytes", kind: "gauge", layer: "vm", help: "Program heap bytes bump-allocated"},
	MemPages:  {key: "mem_pages", prom: "sigil_mem_pages", kind: "gauge", layer: "vm", help: "Program memory pages materialized"},

	Contexts:          {key: "contexts", prom: "sigil_contexts", kind: "gauge", layer: "callgrind", help: "Calling contexts materialized"},
	CacheAccesses:     {key: "cache_accesses", prom: "sigil_cache_accesses_total", kind: "counter", layer: "callgrind", help: "Simulated cache accesses"},
	CacheL1Misses:     {key: "cache_l1_misses", prom: "sigil_cache_l1_misses_total", kind: "counter", layer: "callgrind", help: "Simulated L1 misses"},
	CacheLLMisses:     {key: "cache_ll_misses", prom: "sigil_cache_ll_misses_total", kind: "counter", layer: "callgrind", help: "Simulated last-level misses"},
	CachePrefetches:   {key: "cache_prefetches", prom: "sigil_cache_prefetches_total", kind: "counter", layer: "callgrind", help: "Simulated prefetches issued"},
	Branches:          {key: "branches", prom: "sigil_branches_total", kind: "counter", layer: "callgrind", help: "Simulated conditional branches"},
	BranchMispredicts: {key: "branch_mispredicts", prom: "sigil_branch_mispredicts_total", kind: "counter", layer: "callgrind", help: "Simulated branch mispredictions"},

	InputUniqueBytes:      {key: "input_unique_bytes", prom: "sigil_comm_input_unique_bytes_total", kind: "counter", layer: "sigil", help: "Unique bytes read from other producers"},
	InputNonUniqueBytes:   {key: "input_nonunique_bytes", prom: "sigil_comm_input_nonunique_bytes_total", kind: "counter", layer: "sigil", help: "Repeat bytes read from other producers"},
	OutputUniqueBytes:     {key: "output_unique_bytes", prom: "sigil_comm_output_unique_bytes_total", kind: "counter", layer: "sigil", help: "Unique bytes consumed from this producer"},
	OutputNonUniqueBytes:  {key: "output_nonunique_bytes", prom: "sigil_comm_output_nonunique_bytes_total", kind: "counter", layer: "sigil", help: "Repeat bytes consumed from this producer"},
	LocalUniqueBytes:      {key: "local_unique_bytes", prom: "sigil_comm_local_unique_bytes_total", kind: "counter", layer: "sigil", help: "Unique bytes read by their own producer"},
	LocalNonUniqueBytes:   {key: "local_nonunique_bytes", prom: "sigil_comm_local_nonunique_bytes_total", kind: "counter", layer: "sigil", help: "Repeat bytes read by their own producer"},
	ShadowChunksAllocated: {key: "shadow_chunks_allocated", prom: "sigil_shadow_chunks_allocated_total", kind: "counter", layer: "sigil", help: "Shadow chunks ever materialized"},
	ShadowChunksLive:      {key: "shadow_chunks_live", prom: "sigil_shadow_chunks_live", kind: "gauge", layer: "sigil", help: "Shadow chunks currently resident"},
	ShadowChunksEvicted:   {key: "shadow_chunks_evicted", prom: "sigil_shadow_chunks_evicted_total", kind: "counter", layer: "sigil", help: "Shadow chunks dropped by the FIFO limit"},
	ShadowChunksPeak:      {key: "shadow_chunks_peak", prom: "sigil_shadow_chunks_peak", kind: "gauge", layer: "sigil", help: "Peak shadow chunks resident"},
	ShadowBytesResident:   {key: "shadow_bytes_resident", prom: "sigil_shadow_bytes_resident", kind: "gauge", layer: "sigil", help: "Shadow memory bytes currently resident"},
	ShadowBytesPeak:       {key: "shadow_bytes_peak", prom: "sigil_shadow_bytes_peak", kind: "gauge", layer: "sigil", help: "Peak shadow memory bytes"},
	ShadowCacheHits:       {key: "shadow_cache_hits", prom: "sigil_shadow_cache_hits_total", kind: "counter", layer: "sigil", help: "Chunk lookups served by the direct-mapped cache"},
	ShadowCacheMisses:     {key: "shadow_cache_misses", prom: "sigil_shadow_cache_misses_total", kind: "counter", layer: "sigil", help: "Chunk lookups that fell through to the map"},
	ShadowChunksRecycled:  {key: "shadow_chunks_recycled", prom: "sigil_shadow_chunks_recycled_total", kind: "counter", layer: "sigil", help: "Chunk materializations served by an evicted chunk buffer"},
	ShadowChunksStocked:   {key: "shadow_chunks_stocked", prom: "sigil_shadow_chunks_stocked_total", kind: "counter", layer: "sigil", help: "Chunk buffers the classification worker took from the interpreter's stock"},
	ClassifySpans:         {key: "classify_spans", prom: "sigil_classify_spans_total", kind: "counter", layer: "sigil", help: "Per-chunk spans classified by the batched path"},
	ClassifyRuns:          {key: "classify_runs", prom: "sigil_classify_runs_total", kind: "counter", layer: "sigil", help: "State-uniform runs classified by the batched path"},
	ClassifyGranules:      {key: "classify_granules", prom: "sigil_classify_granules_total", kind: "counter", layer: "sigil", help: "Granules covered by batched classification runs"},
	ClassifyWaits:         {key: "classify_waits", prom: "sigil_classify_waits_total", kind: "counter", layer: "sigil", help: "Times the interpreter blocked on the classification worker"},

	EventsEmitted:        {key: "events_emitted", prom: "sigil_events_emitted_total", kind: "counter", layer: "events", help: "Event-file records emitted"},
	EventQueueDepth:      {key: "event_queue_depth", prom: "sigil_event_queue_depth", kind: "gauge", layer: "events", help: "Event batches queued for the background encoder"},
	EventEmitStalls:      {key: "event_emit_stalls", prom: "sigil_event_emit_stalls_total", kind: "counter", layer: "events", help: "Event emissions that blocked on the encoder"},
	EventFrames:          {key: "event_frames", prom: "sigil_event_frames_total", kind: "counter", layer: "events", help: "Event-file frames written"},
	EventBytesCompressed: {key: "event_bytes_compressed", prom: "sigil_event_bytes_compressed_total", kind: "counter", layer: "events", help: "Event-file bytes on the wire after compression"},
	EventsDropped:        {key: "events_dropped", prom: "sigil_events_dropped_total", kind: "counter", layer: "events", help: "Event-file records discarded by the degraded sink (exact loss)"},
	EventRetries:         {key: "event_retries", prom: "sigil_event_retries_total", kind: "counter", layer: "events", help: "Event-sink writes repeated by the retry layer"},
	EventSinkDegraded:    {key: "event_sink_degraded", prom: "sigil_event_sink_degraded", kind: "gauge", layer: "events", help: "Whether the event sink has started shedding events (0/1)"},

	TraceSpans:        {key: "trace_spans", prom: "sigil_trace_spans_total", kind: "counter", layer: "trace", help: "Completed tracing spans recorded this run"},
	FlightRecorded:    {key: "flight_recorded", prom: "sigil_flight_events_total", kind: "counter", layer: "trace", help: "Events recorded into the flight-recorder ring"},
	FlightOverwritten: {key: "flight_overwritten", prom: "sigil_flight_overwritten_total", kind: "counter", layer: "trace", help: "Flight-recorder events lost to ring wraparound"},

	RunEpoch:        {key: "run_epoch", prom: "sigil_run_epoch", kind: "gauge", layer: "run", help: "Profiling runs begun in this process"},
	RunStartNanos:   {key: "run_start_nanos", prom: "sigil_run_start_seconds", kind: "gauge", layer: "run", help: "Wall-clock start of the current run"},
	BudgetInstrs:    {key: "budget_instrs", prom: "sigil_budget_instructions", kind: "gauge", layer: "run", help: "Retired-instruction budget (0 = unlimited)", omitZero: true},
	BudgetWallNanos: {key: "budget_wall_nanos", prom: "sigil_budget_wall_seconds", kind: "gauge", layer: "run", help: "Wall-clock budget in seconds (0 = unlimited)", omitZero: true},
	Samples:         {key: "samples", prom: "sigil_samples_total", kind: "counter", layer: "run", help: "Telemetry sampler invocations"},
	// Set by a run's final sample only (BeginRun clears it), so it has no
	// live series.
	WallNanos: {key: "wall_nanos", kind: "gauge", layer: "run", help: "Wall-clock duration of the finished run", omitZero: true},
}

// Metrics is the shared live-counter block for one profiling process, one
// atomic slot per counter. Each counter is owned by the sampler (the run
// goroutine, or its classification worker for the classification and
// shadow counters); readers must go through Snapshot. The zero value is
// ready to use.
type Metrics struct {
	v [numCounters]atomic.Uint64
}

// Store sets counter c to v.
func (m *Metrics) Store(c Counter, v uint64) { m.v[c].Store(v) }

// Add adds d to counter c.
func (m *Metrics) Add(c Counter, d uint64) { m.v[c].Add(d) }

// Load reads counter c.
func (m *Metrics) Load(c Counter) uint64 { return m.v[c].Load() }

// BeginRun frames a new profiling run: every counter but the run epoch
// resets, and the run's start and budgets are published so heartbeats can
// report remaining headroom.
func (m *Metrics) BeginRun(start time.Time, budgetInstrs uint64, budgetWall time.Duration) {
	for c := range m.v {
		if Counter(c) != RunEpoch {
			m.v[c].Store(0)
		}
	}
	m.Add(RunEpoch, 1)
	m.Store(RunStartNanos, uint64(start.UnixNano()))
	m.Store(BudgetInstrs, budgetInstrs)
	m.Store(BudgetWallNanos, uint64(budgetWall))
}

// Snapshot returns a point-in-time copy of every counter. Individual loads
// are atomic; the snapshot as a whole is only as consistent as a running
// sampler allows, which is exactly what a progress view needs.
func (m *Metrics) Snapshot() Snapshot {
	var s Snapshot
	for c := range m.v {
		s[c] = m.v[c].Load()
	}
	return s
}

// Snapshot is one frozen view of the counters, indexed by Counter, the form
// that travels: it hangs off core.Result, renders as human text, JSON, and
// Prometheus text format, and backs the expvar export.
type Snapshot [numCounters]uint64

// Delta returns counter c's growth from base to s. It is reset-tolerant:
// BeginRun zeroes counters, so across a run boundary it reports the new
// run's absolute value rather than a wrapped difference.
func (s Snapshot) Delta(base Snapshot, c Counter) uint64 {
	if s[c] < base[c] {
		return s[c]
	}
	return s[c] - base[c]
}

// Deltas returns the growth of every counter row from base to s, through
// Delta, keyed by layer and then by JSON key: the counters a tracing span
// carries. Rows that did not grow are left out, and so are gauges, since
// Delta reads a gauge that fell (call depth 3 to 2) as its end value.
func (s Snapshot) Deltas(base Snapshot) map[string]map[string]uint64 {
	out := make(map[string]map[string]uint64)
	for c, d := range counters {
		v := s.Delta(base, Counter(c))
		if d.kind != "counter" || v == 0 {
			continue
		}
		if out[d.layer] == nil {
			out[d.layer] = make(map[string]uint64)
		}
		out[d.layer][d.key] = v
	}
	return out
}

// InstrsPerSec estimates throughput over the run so far (or the whole run,
// once WallNanos is set).
func (s Snapshot) InstrsPerSec(now time.Time) float64 {
	elapsed := int64(s[WallNanos])
	if elapsed == 0 && s[RunStartNanos] > 0 {
		elapsed = now.UnixNano() - int64(s[RunStartNanos])
	}
	if elapsed <= 0 {
		return 0
	}
	return float64(s[Instrs]) / (float64(elapsed) / float64(time.Second))
}

// Text renders the snapshot as the block the CLI tools print behind
// -telemetry-dump: one line per layer, each counter as a "key value" pair.
func (s Snapshot) Text() string {
	var sb strings.Builder
	for _, layer := range layers {
		sep := ": "
		sb.WriteString(layer)
		for c, d := range counters {
			if d.layer == layer {
				fmt.Fprintf(&sb, "%s%s %d", sep, d.key, s[c])
				sep = "  "
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// JSON renders the snapshot as a single JSON object.
func (s Snapshot) JSON() ([]byte, error) { return json.Marshal(s) }

// MarshalJSON writes one key per counter, leaving out the omitZero rows
// that are zero.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	b := []byte{'{'}
	for c, d := range counters {
		if d.omitZero && s[c] == 0 {
			continue
		}
		if len(b) > 1 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, d.key)
		b = append(b, ':')
		b = strconv.AppendUint(b, s[c], 10)
	}
	return append(b, '}'), nil
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4), one HELP/TYPE/sample triplet per series.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	for c, d := range counters {
		if d.prom == "" {
			continue
		}
		v := strconv.FormatUint(s[c], 10)
		if strings.HasSuffix(d.prom, "_seconds") {
			v = strconv.FormatFloat(float64(s[c])/float64(time.Second), 'f', 3, 64)
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %s\n",
			d.prom, d.help, d.prom, d.kind, d.prom, v); err != nil {
			return err
		}
	}
	return nil
}
