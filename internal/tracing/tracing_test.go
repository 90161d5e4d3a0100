package tracing

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"sigil/internal/telemetry"
)

func TestSpanHierarchyAndMerge(t *testing.T) {
	rec := NewRecorder()
	b := rec.Local("main")

	run := b.Start("run", A("workload", "fft"))
	child := b.Start("write")
	child.End()
	run.End()

	spans := rec.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name != "run" || spans[0].Parent != 0 {
		t.Fatalf("first span = %+v, want root named run", spans[0])
	}
	if spans[1].Name != "write" || spans[1].Parent != spans[0].ID {
		t.Fatalf("child span = %+v, want parent %d", spans[1], spans[0].ID)
	}
	if spans[0].Track != b.id || spans[1].Track != b.id {
		t.Fatalf("spans not attributed to track %d: %+v", b.id, spans)
	}
	if got := rec.SpanCount(); got != 2 {
		t.Fatalf("SpanCount = %d, want 2", got)
	}

	roots := Tree(spans)
	if len(roots) != 1 || roots[0].Name != "run" || len(roots[0].Children) != 1 {
		t.Fatalf("Tree = %+v, want one root with one child", roots)
	}
}

// TestSpanDeltas: a span carries the growth of every counter row, by
// layer, and no gauge, not even one that fell (call depth 3 to 2, which
// Delta's reset tolerance would read as 2).
func TestSpanDeltas(t *testing.T) {
	var m telemetry.Metrics
	m.BeginRun(time.Now(), 0, 0)
	m.Store(telemetry.CallDepth, 3)
	rec := NewRecorder()
	b := rec.Local("main")
	b.SetMetrics(&m)

	s := b.Start("run")
	m.Store(telemetry.Instrs, 1000)
	m.Store(telemetry.CallDepth, 2)
	m.Store(telemetry.EventsEmitted, 40)
	// The resident shadow bytes are a gauge: their growth shows as chunks
	// allocated, a counter.
	m.Store(telemetry.ShadowBytesResident, 1<<20)
	m.Store(telemetry.ShadowChunksAllocated, 4)
	s.End()

	want := map[string]map[string]uint64{
		"vm":     {"instrs": 1000},
		"sigil":  {"shadow_chunks_allocated": 4},
		"events": {"events_emitted": 40},
	}
	if got := rec.Spans()[0].Deltas; !reflect.DeepEqual(got, want) {
		t.Fatalf("deltas = %v, want %v", got, want)
	}
}

// TestSpanLogsDeltas pins the structured "phase" log line the telemetry
// span system used to emit: name, wall, cpu, and counter deltas.
func TestSpanLogsDeltas(t *testing.T) {
	var buf syncBuffer
	log, err := telemetry.NewLogger(&buf, "text", nil)
	if err != nil {
		t.Fatal(err)
	}
	var m telemetry.Metrics
	m.Store(telemetry.Instrs, 100)

	b := NewRecorder().Local("main")
	b.SetMetrics(&m)
	b.SetLogger(log)
	s := b.Start("assemble")
	m.Store(telemetry.Instrs, 350)
	m.Store(telemetry.EventsEmitted, 12)
	s.End()

	out := buf.String()
	for _, want := range []string{"phase", "name=assemble", "instrs:250", "events_emitted:12", "wall=", "cpu="} {
		if !strings.Contains(out, want) {
			t.Errorf("span log missing %q:\n%s", want, out)
		}
	}
}

// TestDeltaResetTolerant: a span straddling a BeginRun reset must report
// the new run's absolute counters, not a wrapped difference.
func TestDeltaResetTolerant(t *testing.T) {
	var m telemetry.Metrics
	m.Store(telemetry.Instrs, 5000)

	b := NewRecorder().Local("main")
	b.SetMetrics(&m)
	s := b.Start("phase")
	m.BeginRun(time.Now(), 0, 0) // reset to zero
	m.Store(telemetry.Instrs, 70)
	s.End()

	if d := b.rec.Spans()[0].Deltas; d["vm"]["instrs"] != 70 {
		t.Fatalf("reset-straddling span deltas = %v, want instrs 70", d)
	}
}

func TestEndOutOfOrderClosesChildren(t *testing.T) {
	rec := NewRecorder()
	b := rec.Local("main")
	outer := b.Start("outer")
	inner := b.Start("inner")
	outer.End() // inner left open: must be closed implicitly
	inner.End() // and a second End must be inert

	spans := rec.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2 (implicit child close, idempotent End)", len(spans))
	}
	if len(b.stack) != 0 {
		t.Fatalf("stack not drained: %d entries", len(b.stack))
	}
}

func TestNilBufAndActiveAreInert(t *testing.T) {
	var b *Buf
	b.Start("nothing").End()
	b.Sample(Sample{})
	b.SetLogger(nil)
	if b.Recorder() != nil {
		t.Fatal("nil Buf should have nil Recorder")
	}
}

func TestSampleDecimation(t *testing.T) {
	b := NewRecorder().Local("main")
	n := maxSamplesPerBuf*4 + 17
	for i := 0; i < n; i++ {
		b.Sample(Sample{TimeNanos: int64(i), Instrs: uint64(i)})
	}
	if len(b.samples) > maxSamplesPerBuf {
		t.Fatalf("sample log exceeded cap: %d > %d", len(b.samples), maxSamplesPerBuf)
	}
	last := int64(-1)
	for _, s := range b.samples {
		if s.TimeNanos <= last {
			t.Fatalf("samples out of order after decimation: %d after %d", s.TimeNanos, last)
		}
		last = s.TimeNanos
	}
	// Decimation must retain coverage of the whole run, including early points.
	if b.samples[0].TimeNanos != 0 {
		t.Fatalf("first sample lost in decimation: %+v", b.samples[0])
	}
}

func TestSpanCapCountsDrops(t *testing.T) {
	rec := NewRecorder()
	b := rec.Local("main")
	for i := 0; i < maxSpansPerBuf+10; i++ {
		b.Start("s").End()
	}
	if len(b.spans) != maxSpansPerBuf {
		t.Fatalf("kept %d spans, want cap %d", len(b.spans), maxSpansPerBuf)
	}
	tracks := rec.Tracks()
	if tracks[0].SpansDropped != 10 {
		t.Fatalf("SpansDropped = %d, want 10", tracks[0].SpansDropped)
	}
}

// syncBuffer makes bytes.Buffer safe for concurrent slog handlers.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
