package core

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"sigil/internal/telemetry"
	"sigil/internal/trace"
	"sigil/internal/workloads"
)

// TestFinalSnapshotMatchesResult reconciles the telemetry counters against
// the Result's own aggregates: the snapshot is a live view of the same
// run, so at end of run the two accountings must agree exactly.
func TestFinalSnapshotMatchesResult(t *testing.T) {
	var buf trace.Buffer
	m := &telemetry.Metrics{}
	res, err := Run(producerConsumer(t, 64, 3), Options{Telemetry: m, Events: &buf}, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Telemetry
	if snap == nil {
		t.Fatal("Result.Telemetry not populated")
	}

	if snap[telemetry.Instrs] != res.Profile.TotalInstrs {
		t.Errorf("Instrs = %d, Profile.TotalInstrs = %d", snap[telemetry.Instrs], res.Profile.TotalInstrs)
	}
	if snap[telemetry.EventsEmitted] != uint64(len(buf.Events)) {
		t.Errorf("EventsEmitted = %d, buffer holds %d", snap[telemetry.EventsEmitted], len(buf.Events))
	}
	if snap[telemetry.Contexts] != uint64(len(res.Profile.Nodes)) {
		t.Errorf("Contexts = %d, profile has %d", snap[telemetry.Contexts], len(res.Profile.Nodes))
	}

	total := res.TotalCommunicated()
	if snap[telemetry.InputUniqueBytes] != total.InputUnique ||
		snap[telemetry.InputNonUniqueBytes] != total.InputNonUnique ||
		snap[telemetry.OutputUniqueBytes] != total.OutputUnique ||
		snap[telemetry.OutputNonUniqueBytes] != total.OutputNonUnique ||
		snap[telemetry.LocalUniqueBytes] != total.LocalUnique ||
		snap[telemetry.LocalNonUniqueBytes] != total.LocalNonUnique {
		t.Errorf("comm axes diverge: snapshot %+v, result %+v", snap, total)
	}

	sh := res.Shadow
	if snap[telemetry.ShadowChunksAllocated] != sh.ChunksAllocated ||
		snap[telemetry.ShadowChunksLive] != sh.ChunksLive ||
		snap[telemetry.ShadowChunksEvicted] != sh.ChunksEvicted ||
		snap[telemetry.ShadowChunksPeak] != sh.PeakLiveChunks {
		t.Errorf("shadow chunks diverge: snapshot %+v, result %+v", snap, sh)
	}
	if snap[telemetry.ShadowBytesPeak] != sh.PeakBytes {
		t.Errorf("ShadowBytesPeak = %d, result %d", snap[telemetry.ShadowBytesPeak], sh.PeakBytes)
	}
	if snap[telemetry.ShadowBytesResident] != sh.ChunksLive*sh.BytesPerChunk {
		t.Errorf("ShadowBytesResident = %d, want %d", snap[telemetry.ShadowBytesResident], sh.ChunksLive*sh.BytesPerChunk)
	}

	if snap[telemetry.WallNanos] != uint64(res.Wall) {
		t.Errorf("WallNanos = %d, res.Wall = %d", snap[telemetry.WallNanos], res.Wall)
	}
	if snap[telemetry.Samples] == 0 {
		t.Error("no sampler invocations recorded")
	}
	// The caller's live block saw the same final sample.
	if live := m.Snapshot(); live[telemetry.Instrs] != snap[telemetry.Instrs] {
		t.Errorf("live metrics (%d instrs) diverge from snapshot (%d)", live[telemetry.Instrs], snap[telemetry.Instrs])
	}
}

// TestSampleIntoCarriesWriterStats: the sampler mirrors the async v3
// writer's pipeline counters into the metrics block. The writer is closed
// before sampling, so its counters are final and the comparison is exact.
func TestSampleIntoCarriesWriterStats(t *testing.T) {
	var buf bytes.Buffer
	w := trace.NewWriterOptions(&buf, trace.WriterOptions{FrameEvents: 4})
	tool, err := New(newSubstrate(), Options{Events: w})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := w.Emit(trace.Event{Kind: trace.KindOps, Ops: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	m := &telemetry.Metrics{}
	tool.sampleInto(m)
	snap := m.Snapshot()
	st := w.Stats()
	if st.Frames == 0 {
		t.Fatal("writer wrote no frames")
	}
	if snap[telemetry.EventFrames] != st.Frames {
		t.Errorf("EventFrames = %d, writer reports %d", snap[telemetry.EventFrames], st.Frames)
	}
	if snap[telemetry.EventBytesCompressed] != st.CompressedBytes {
		t.Errorf("EventBytesCompressed = %d, writer reports %d", snap[telemetry.EventBytesCompressed], st.CompressedBytes)
	}
	if snap[telemetry.EventQueueDepth] != 0 {
		t.Errorf("EventQueueDepth = %d after Close", snap[telemetry.EventQueueDepth])
	}
	if snap[telemetry.EventEmitStalls] != st.Stalls {
		t.Errorf("EventEmitStalls = %d, writer reports %d", snap[telemetry.EventEmitStalls], st.Stalls)
	}
}

// TestSnapshotCarriesWriterStats: end to end, a run profiling into a
// FileSink surfaces the pipeline counters in the final snapshot. The
// background encoder may still be draining when the final sample is taken,
// so the snapshot can lag the sink's eventual totals but never exceed them.
func TestSnapshotCarriesWriterStats(t *testing.T) {
	path := t.TempDir() + "/out.evt"
	sink, err := trace.CreateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(producerConsumer(t, 64, 3), Options{Events: sink}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Commit(); err != nil {
		t.Fatal(err)
	}
	st := sink.Stats()
	snap := res.Telemetry
	if snap[telemetry.EventsEmitted] != st.Events {
		t.Errorf("EventsEmitted = %d, sink accepted %d", snap[telemetry.EventsEmitted], st.Events)
	}
	if snap[telemetry.EventFrames] > st.Frames {
		t.Errorf("EventFrames = %d exceeds final %d", snap[telemetry.EventFrames], st.Frames)
	}
	if snap[telemetry.EventBytesCompressed] > st.CompressedBytes {
		t.Errorf("EventBytesCompressed = %d exceeds final %d", snap[telemetry.EventBytesCompressed], st.CompressedBytes)
	}
}

// TestSharedMetricsSamplesPerRun: two runs that share one Metrics block,
// as sigil-report's two profiles do, each report the samples of their own
// run, the same as a run on a fresh block, on both schedules.
func TestSharedMetricsSamplesPerRun(t *testing.T) {
	prog, input, err := workloads.Build("fft", workloads.SimSmall)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2} {
		_, fresh, err := runAt(t, procs, prog, input, Options{Telemetry: &telemetry.Metrics{}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := fresh.Telemetry[telemetry.Samples]
		shared := &telemetry.Metrics{}
		for run := 1; run <= 2; run++ {
			_, res, err := runAt(t, procs, prog, input, Options{Telemetry: shared}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Telemetry[telemetry.Samples]; got != want {
				t.Errorf("GOMAXPROCS %d, run %d on a shared block: %d samples, a fresh run %d", procs, run, got, want)
			}
		}
	}
}

// TestSnapshotWithoutMetrics: Result.Telemetry is populated even when the
// caller supplied no live Metrics block (the sampler then only runs once,
// at end of run).
func TestSnapshotWithoutMetrics(t *testing.T) {
	res, err := Run(producerConsumer(t, 16, 1), Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry == nil {
		t.Fatal("Result.Telemetry nil without Options.Telemetry")
	}
	if res.Telemetry[telemetry.Instrs] != res.Profile.TotalInstrs {
		t.Errorf("Instrs = %d, want %d", res.Telemetry[telemetry.Instrs], res.Profile.TotalInstrs)
	}
}

// TestSnapshotCarriesBudgets: budget framing flows into the snapshot so
// heartbeats and endpoints can report remaining headroom.
func TestSnapshotCarriesBudgets(t *testing.T) {
	res, err := Run(producerConsumer(t, 16, 1), Options{MaxInstrs: 1 << 30, MaxWall: time.Hour}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Telemetry[telemetry.BudgetInstrs] != 1<<30 {
		t.Errorf("BudgetInstrs = %d", res.Telemetry[telemetry.BudgetInstrs])
	}
	if res.Telemetry[telemetry.BudgetWallNanos] != uint64(time.Hour) {
		t.Errorf("BudgetWallNanos = %d", res.Telemetry[telemetry.BudgetWallNanos])
	}
}

// TestConcurrentSnapshotReaders exercises the single-writer/multi-reader
// contract under the race detector: readers snapshot continuously while
// the sampler publishes from the run goroutine, and the run is cancelled
// mid-flight like a real interrupted profile. Fields are independent
// atomics, so readers only check per-field monotonicity, not cross-field
// invariants.
func TestConcurrentSnapshotReaders(t *testing.T) {
	m := &telemetry.Metrics{}
	ctx, cancel := context.WithCancel(context.Background())

	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastInstrs uint64
			for {
				select {
				case <-done:
					return
				default:
					s := m.Snapshot()
					if s[telemetry.Instrs] < lastInstrs {
						t.Errorf("instruction counter went backwards: %d -> %d", lastInstrs, s[telemetry.Instrs])
						return
					}
					lastInstrs = s[telemetry.Instrs]
				}
			}
		}()
	}
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()

	// Large enough to outlive the cancel timer at instrumented speed.
	res, err := RunContext(ctx, producerConsumer(t, 4096, 10000), Options{Telemetry: m}, nil)
	close(done)
	wg.Wait()
	if err == nil {
		t.Skip("run finished before cancellation; nothing to assert")
	}
	if res == nil {
		t.Fatal("cancelled run salvaged no result")
	}
	if res.Telemetry == nil {
		t.Error("cancelled run has no telemetry snapshot")
	}
}
