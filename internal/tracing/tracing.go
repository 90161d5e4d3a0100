// Package tracing is the run-observability substrate: hierarchical phase
// spans, a lock-free flight recorder, a machine-readable run report, and a
// Chrome trace_event exporter.
//
// The span layer subsumes the ad-hoc telemetry phase spans: a span is a
// named interval with attributes, wall and CPU time, and the growth of every
// telemetry counter while it was open (telemetry.Snapshot.Deltas). Spans
// are recorded into per-goroutine buffers (a Buf is owned by exactly one
// goroutine at a time, never locked) and merged at run end, so the parallel
// experiments pool gets correct per-workload span trees at any worker
// count.
//
// The flight recorder (flight.go) is orthogonal: a fixed-size ring of the
// last N notable events — phase transitions, fault firings, writer stalls
// and sheds — safe to write from any goroutine and dumped when a run ends
// badly.
package tracing

import (
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sigil/internal/telemetry"
)

// maxSpansPerBuf bounds a single track's completed-span storage. Overflow
// is counted, not silently swallowed: spans beyond the cap are dropped and
// reported via Track.SpansDropped.
const maxSpansPerBuf = 1 << 14

// maxSamplesPerBuf bounds a track's poll-sample log. On overflow the log is
// decimated in place (every other sample dropped, stride doubled) so the
// retained samples still span the whole run with monotonic timestamps.
const maxSamplesPerBuf = 2048

// Attr is one key/value annotation on a span. Values should be strings,
// integers, or floats so the run report and Chrome export stay readable.
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// A builds an Attr; it exists so call sites read Start("run", A("mode", m)).
func A(key string, value any) Attr { return Attr{Key: key, Value: value} }

// Span is one completed interval. Parent is 0 for roots; Track identifies
// the Buf (goroutine) that recorded it. Deltas is the growth of the attached
// Metrics' counters while the span was open, by layer and then by JSON key.
type Span struct {
	ID         uint64                       `json:"id"`
	Parent     uint64                       `json:"parent,omitempty"`
	Track      uint64                       `json:"track"`
	Name       string                       `json:"name"`
	Attrs      []Attr                       `json:"attrs,omitempty"`
	StartNanos int64                        `json:"start_nanos"`
	WallNanos  int64                        `json:"wall_nanos"`
	CPUNanos   int64                        `json:"cpu_nanos"`
	Deltas     map[string]map[string]uint64 `json:"deltas,omitempty"`
}

// Sample is one point on a track's counter timeline, recorded from the
// machine's 16K-instruction poll hook. The values are telemetry counters
// under their table keys.
type Sample struct {
	TimeNanos           int64  `json:"time_nanos"`
	Instrs              uint64 `json:"instrs"`
	HeapBytes           uint64 `json:"heap_bytes"`
	ShadowBytesResident uint64 `json:"shadow_bytes_resident"`
	EventsEmitted       uint64 `json:"events_emitted"`
}

// Track is the merged view of one Buf: its identity plus the sample
// timeline and overflow accounting. Spans are reported separately (flat,
// via Recorder.Spans) because the tree spans tracks.
type Track struct {
	ID           uint64   `json:"id"`
	Name         string   `json:"name"`
	Samples      []Sample `json:"samples,omitempty"`
	SpansDropped uint64   `json:"spans_dropped,omitempty"`
}

// Recorder owns the per-goroutine span buffers for one process (usually one
// per tool invocation). Local hands out buffers; Spans/Tracks merge them.
// Merging requires the buffer-owning goroutines to be quiescent — call it
// after the worker pool has drained, as the run-report writer does.
type Recorder struct {
	mu        sync.Mutex
	bufs      []*Buf
	nextSpan  atomic.Uint64
	nextTrack atomic.Uint64
	spans     atomic.Uint64 // completed spans, readable while running
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Local creates a new track-owning buffer. The returned Buf must only be
// used by one goroutine at a time; hand each worker its own.
func (r *Recorder) Local(name string) *Buf {
	b := &Buf{rec: r, id: r.nextTrack.Add(1), name: name, sampleStride: 1}
	r.mu.Lock()
	r.bufs = append(r.bufs, b)
	r.mu.Unlock()
	return b
}

// SpanCount reports the number of completed spans across all tracks. It is
// safe to call concurrently with recording.
func (r *Recorder) SpanCount() uint64 {
	if r == nil {
		return 0
	}
	return r.spans.Load()
}

// Spans merges every track's completed spans, ordered by start time (ties
// by ID, so a parent precedes the children it started in the same
// nanosecond). See Recorder for the quiescence requirement.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Span
	for _, b := range r.bufs {
		out = append(out, b.spans...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartNanos != out[j].StartNanos {
			return out[i].StartNanos < out[j].StartNanos
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Tracks returns the merged per-track metadata and sample timelines,
// ordered by track ID. Same quiescence requirement as Spans.
func (r *Recorder) Tracks() []Track {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Track, 0, len(r.bufs))
	for _, b := range r.bufs {
		out = append(out, Track{
			ID:           b.id,
			Name:         b.name,
			Samples:      append([]Sample(nil), b.samples...),
			SpansDropped: b.dropped,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Buf is one goroutine's span buffer: an open-span stack for hierarchy, the
// completed-span log, and the poll-sample timeline. It is deliberately
// unsynchronized — ownership passes between goroutines only across a
// happens-before edge (channel send, WaitGroup, process phase).
type Buf struct {
	rec     *Recorder
	id      uint64
	name    string
	metrics *telemetry.Metrics
	log     *slog.Logger

	stack []*Active
	spans []Span

	samples      []Sample
	sampleStride int
	sampleSeq    uint64
	dropped      uint64
}

// Recorder returns the Recorder this buffer records into.
func (b *Buf) Recorder() *Recorder {
	if b == nil {
		return nil
	}
	return b.rec
}

// SetMetrics attaches the telemetry counters future spans diff against.
// Returns the previous attachment so a callee can scope its own metrics
// (core.RunContext does this when the caller supplied none).
func (b *Buf) SetMetrics(m *telemetry.Metrics) *telemetry.Metrics {
	if b == nil {
		return nil
	}
	prev := b.metrics
	b.metrics = m
	return prev
}

// SetLogger attaches a logger; when set, every span End also emits the
// structured "phase" log line the telemetry span system used to produce.
func (b *Buf) SetLogger(l *slog.Logger) {
	if b != nil {
		b.log = l
	}
}

// Active is an open span. End closes it; a nil Active is inert so call
// sites need no tracing-enabled guards.
type Active struct {
	buf     *Buf
	span    Span
	start   time.Time
	cpu0    time.Duration
	base    telemetry.Snapshot
	hasBase bool
}

// Start opens a span nested under the buffer's innermost open span. A nil
// Buf returns a nil (inert) Active.
func (b *Buf) Start(name string, attrs ...Attr) *Active {
	if b == nil {
		return nil
	}
	a := &Active{
		buf:   b,
		start: time.Now(),
		cpu0:  processCPUTime(),
	}
	a.span = Span{
		ID:         b.rec.nextSpan.Add(1),
		Track:      b.id,
		Name:       name,
		Attrs:      attrs,
		StartNanos: a.start.UnixNano(),
	}
	if n := len(b.stack); n > 0 {
		a.span.Parent = b.stack[n-1].span.ID
	}
	if b.metrics != nil {
		a.base = b.metrics.Snapshot()
		a.hasBase = true
	}
	b.stack = append(b.stack, a)
	return a
}

// End closes the span, computing wall, CPU, and counter deltas, and logs
// the "phase" line when the buffer has a logger. Spans must be closed
// innermost-first; if children were left open they are closed implicitly
// (recorded with the same end time) rather than corrupting the stack.
func (a *Active) End(attrs ...Attr) {
	if a == nil || a.buf == nil {
		return
	}
	b := a.buf
	// Find a on the stack; anything above it is an unclosed child.
	idx := -1
	for i := len(b.stack) - 1; i >= 0; i-- {
		if b.stack[i] == a {
			idx = i
			break
		}
	}
	if idx < 0 {
		return // already ended
	}
	now := time.Now()
	cpu := processCPUTime()
	for i := len(b.stack) - 1; i > idx; i-- {
		b.stack[i].finish(now, cpu, nil)
	}
	a.finish(now, cpu, attrs)
	b.stack = b.stack[:idx]
}

// finish records the span; the caller has already decided its position on
// the stack is being released.
func (a *Active) finish(now time.Time, cpu time.Duration, attrs []Attr) {
	b := a.buf
	a.buf = nil // mark ended
	a.span.Attrs = append(a.span.Attrs, attrs...)
	a.span.WallNanos = int64(now.Sub(a.start))
	a.span.CPUNanos = int64(cpu - a.cpu0)
	logAttrs := []any{
		slog.String("name", a.span.Name),
		slog.Duration("wall", time.Duration(a.span.WallNanos)),
		slog.Duration("cpu", time.Duration(a.span.CPUNanos)),
	}
	if a.hasBase && b.metrics != nil {
		a.span.Deltas = b.metrics.Snapshot().Deltas(a.base)
		logAttrs = append(logAttrs, slog.Any("deltas", a.span.Deltas))
	}
	if len(b.spans) < maxSpansPerBuf {
		b.spans = append(b.spans, a.span)
		b.rec.spans.Add(1)
	} else {
		b.dropped++
	}
	if b.log != nil {
		b.log.Info("phase", logAttrs...)
	}
}

// Sample appends a point to the track's counter timeline, decimating when
// the log is full so memory stays bounded on long runs while the retained
// points still cover the whole run in time order.
func (b *Buf) Sample(s Sample) {
	if b == nil {
		return
	}
	b.sampleSeq++
	if (b.sampleSeq-1)%uint64(b.sampleStride) != 0 {
		return
	}
	if len(b.samples) >= maxSamplesPerBuf {
		keep := b.samples[:0]
		for i := 0; i < len(b.samples); i += 2 {
			keep = append(keep, b.samples[i])
		}
		b.samples = keep
		b.sampleStride *= 2
	}
	b.samples = append(b.samples, s)
}

// processCPUTime returns the process's user+system CPU time, the span cost
// axis that distinguishes "slow because working" from "slow because
// blocked".
func processCPUTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
