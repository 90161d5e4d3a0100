package tracing

import (
	"sync"
	"testing"
	"time"

	"sigil/internal/telemetry"
)

// TestConcurrentRecordingStress exercises the concurrency contract the
// parallel experiments pool relies on: many goroutines each own a Buf and
// record span trees and samples, all of them hammer the shared flight
// recorder, and readers concurrently snapshot the flight ring and poll
// SpanCount. Run under -race (scripts/check.sh does) this is the span +
// flight-recorder data-race gate.
func TestConcurrentRecordingStress(t *testing.T) {
	rec := NewRecorder()
	flight := NewFlight(256)
	var m telemetry.Metrics
	m.BeginRun(time.Now(), 0, 0)

	const workers = 8
	const runs = 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			b := rec.Local("worker")
			b.SetMetrics(&m)
			for r := 0; r < runs; r++ {
				run := b.Start("run", A("worker", w))
				for p := 0; p < 8; p++ {
					b.Sample(Sample{TimeNanos: time.Now().UnixNano(), Instrs: uint64(p)})
					flight.Record(KindRetry, "sink", uint64(p), 0)
				}
				child := b.Start("write")
				flight.Record(KindStall, "writer", uint64(r), 0)
				child.End()
				run.End()
			}
		}(w)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = flight.Snapshot()
					_ = rec.SpanCount()
					_ = m.Snapshot()
				}
			}
		}()
	}

	wg.Wait()
	close(stop)
	readers.Wait()

	spans := rec.Spans()
	want := workers * runs * 2
	if len(spans) != want {
		t.Fatalf("merged %d spans, want %d", len(spans), want)
	}
	// Every worker's tree must be intact: each "write" span's parent is a
	// "run" span on the same track.
	byID := make(map[uint64]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Name != "write" {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || p.Name != "run" || p.Track != s.Track {
			t.Fatalf("write span %d has broken parentage: %+v parent %+v", s.ID, s, p)
		}
	}
	if got := flight.Recorded(); got != uint64(workers*runs*9) {
		t.Fatalf("flight recorded %d events, want %d", got, workers*runs*9)
	}
}
