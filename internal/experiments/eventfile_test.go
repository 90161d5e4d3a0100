package experiments

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

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
		tr, err := suite().Trace(row.Name)
		if err != nil {
			t.Fatal(err)
		}
		if flat := flatRecordBytes(streamEvents(tr)); row.Events > 1000 && row.Bytes*2 > flat {
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

// TestStreamEventsRoundTrips: the reconstructed defctx-first sequence must
// decode back to the exact same Trace it was built from.
func TestStreamEventsRoundTrips(t *testing.T) {
	tr, err := suite().Trace("fft")
	if err != nil {
		t.Fatal(err)
	}
	events := streamEvents(tr)
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for _, e := range events {
		if err := w.Emit(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Events, tr.Events) || !reflect.DeepEqual(got.Contexts, tr.Contexts) {
		t.Error("round-tripped trace differs from original")
	}
	// Context definitions must precede every use when replayed in order.
	rd := trace.NewReader(bytes.NewReader(buf.Bytes()))
	defined := map[int32]bool{trace.CtxStartup: true, trace.CtxKernel: true}
	for {
		e, err := rd.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
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
