package trace

import (
	"bytes"
	"io"
	"testing"
)

// Microbenchmarks for the event-file hot paths, named so scripts/bench.sh
// picks them up (TraceEmit|TraceDecode). Each op processes a full stream of
// benchStreamEvents records so ns/op tracks whole-file throughput: the emit
// benches time the async writer, the decode benches the framed reader
// sequentially and 4-way parallel.

const benchStreamEvents = 1 << 14

func benchStream(b *testing.B) []Event {
	b.Helper()
	return genEvents(benchStreamEvents)
}

func benchEncode(b *testing.B, events []Event) []byte {
	b.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, e := range events {
		if err := w.Emit(e); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

func BenchmarkTraceEmitV3(b *testing.B) {
	events := benchStream(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := NewWriter(io.Discard)
		for _, e := range events {
			if err := w.Emit(e); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceEmitCallV3 measures the per-call latency the instrumented
// run pays inline: a slab append plus an occasional batch hand-off.
// Encoding and compression ride on the writer's background goroutine, so
// on multi-core hosts they overlap the run (on a single-CPU host the
// encoder still shares the measured thread's core — see
// BenchmarkTraceEmitV3 for whole-stream wall time including that work).
func BenchmarkTraceEmitCallV3(b *testing.B) {
	events := benchStream(b)
	w := NewWriter(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Emit(events[i%len(events)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkTraceDecodeV3Seq(b *testing.B) {
	data := benchEncode(b, benchStream(b))
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadAllWorkers(bytes.NewReader(data), 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceDecodeV3Par4(b *testing.B) {
	data := benchEncode(b, benchStream(b))
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadAllWorkers(bytes.NewReader(data), 4); err != nil {
			b.Fatal(err)
		}
	}
}
