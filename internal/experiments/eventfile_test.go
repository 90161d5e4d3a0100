package experiments

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"sigil/internal/core"
	"sigil/internal/trace"
	"sigil/internal/workloads"
)

func TestEventFileStats(t *testing.T) {
	r, err := suite().EventFileStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(workloads.Names()) {
		t.Fatalf("rows = %d, want %d", len(r.Rows), len(workloads.Names()))
	}
	for _, row := range r.Rows {
		if row.Events == 0 || row.Bytes == 0 {
			t.Errorf("%s: empty row %+v", row.Name, row)
		}
		if row.Frames == 0 {
			t.Errorf("%s: no frames recorded", row.Name)
		}
		if want := float64(row.Bytes) / float64(row.Events); row.BytesPerEvent != want {
			t.Errorf("%s: bytes/event %.3f, want %.3f", row.Name, row.BytesPerEvent, want)
		}
		// Real event files are pinned at >= 2x smaller than the same
		// events as flat varint records; streams long enough to fill
		// frames must clear it comfortably.
		if row.Events <= 1000 {
			continue
		}
		file, _ := writeEvents(t, suite(), row.Name)
		if flat := flatRecordBytes(readEvents(t, file)); row.Bytes*2 > flat {
			t.Errorf("%s: %d bytes vs %d flat on %d events: less than 2x smaller", row.Name, row.Bytes, flat, row.Events)
		}
	}
	out := r.Render()
	for _, want := range []string{"workload", "bytes", "frames", "bytes/event"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// flatRecordBytes is the size of events as flat varint records — a kind
// byte, eight uvarints (the two context ids zigzag-encoded) and the name —
// the baseline the framed, compressed format must beat.
func flatRecordBytes(events []trace.Event) int {
	var buf [binary.MaxVarintLen64]byte
	n := 0
	for _, e := range events {
		n += 1 + len(e.Name) + binary.PutVarint(buf[:], int64(e.Ctx)) + binary.PutVarint(buf[:], int64(e.SrcCtx))
		for _, v := range [...]uint64{e.Call, e.SrcCall, e.Bytes, e.Ops, e.Time, uint64(len(e.Name))} {
			n += binary.PutUvarint(buf[:], v)
		}
	}
	return n
}

// writeEvents runs a workload at simsmall with the suite's options into a
// trace.Writer, as sigil -events does, and returns the file it wrote and
// the writer's counts.
func writeEvents(t *testing.T, s *Suite, name string) ([]byte, trace.WriterStats) {
	t.Helper()
	prog, input, err := workloads.Build(name, workloads.SimSmall)
	if err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	w := trace.NewWriter(&file)
	opts := s.coreOptions(name, ModeBaseline)
	opts.Events = w
	if _, err := core.Run(prog, opts, input); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return file.Bytes(), w.Stats()
}

// readEvents decodes every record of an event file in stream order,
// context definitions included.
func readEvents(t *testing.T, file []byte) []trace.Event {
	t.Helper()
	var events []trace.Event
	rd := trace.NewReader(bytes.NewReader(file))
	for {
		e, err := rd.Next()
		if errors.Is(err, io.EOF) {
			return events
		}
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, e)
	}
}

// TestEventFileStatsMatchWriter: a row reports the file a trace.Writer
// writes for the workload's run, byte for byte, where each context
// definition travels at its context's first call.
func TestEventFileStatsMatchWriter(t *testing.T) {
	r, err := suite().EventFileStats()
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]EventFileRow{}
	for _, row := range r.Rows {
		rows[row.Name] = row
	}
	for _, name := range []string{"fluidanimate", "bodytrack", "vips", "dedup"} {
		file, stats := writeEvents(t, suite(), name)
		want := EventFileRow{Name: name, Events: int(stats.Events), Bytes: len(file), Frames: stats.Frames,
			BytesPerEvent: float64(len(file)) / float64(stats.Events)}
		if got := rows[name]; got != want {
			t.Errorf("%s: row %+v, want the writer's %+v", name, got, want)
		}
	}
}

// TestStreamEventsRoundTrips: the event file behind a suite trace decodes
// to the trace a trace.Buffer collects from the same run, and it defines
// every context before its first use.
func TestStreamEventsRoundTrips(t *testing.T) {
	tr, err := suite().Trace("fft")
	if err != nil {
		t.Fatal(err)
	}
	prog, input, err := workloads.Build("fft", workloads.SimSmall)
	if err != nil {
		t.Fatal(err)
	}
	var buf trace.Buffer
	opts := suite().coreOptions("fft", ModeBaseline)
	opts.Events = &buf
	if _, err := core.Run(prog, opts, input); err != nil {
		t.Fatal(err)
	}
	want := trace.FromBuffer(&buf)
	if !reflect.DeepEqual(tr.Events, want.Events) || !reflect.DeepEqual(tr.Contexts, want.Contexts) {
		t.Error("decoded trace differs from the run's in-memory stream")
	}
	// Context definitions must precede every use when replayed in order.
	file, _ := writeEvents(t, suite(), "fft")
	defined := map[int32]bool{trace.CtxStartup: true, trace.CtxKernel: true}
	for _, e := range readEvents(t, file) {
		if e.Kind == trace.KindDefCtx {
			if e.SrcCtx >= 0 && !defined[e.SrcCtx] {
				t.Fatalf("ctx %d defined before its parent %d", e.Ctx, e.SrcCtx)
			}
			defined[e.Ctx] = true
			continue
		}
		if !defined[e.Ctx] {
			t.Fatalf("event for undefined ctx %d", e.Ctx)
		}
	}
}
