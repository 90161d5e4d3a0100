package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"
)

// genEvents builds n synthetic events exercising every kind, with call
// numbers and timestamps that move both forward and backward so the delta
// encoder sees negative deltas.
func genEvents(n int) []Event {
	events := make([]Event, 0, n)
	events = append(events,
		Event{Kind: KindDefCtx, Ctx: 0, SrcCtx: -1, Name: "main"},
		Event{Kind: KindDefCtx, Ctx: 1, SrcCtx: 0, Name: "worker"},
	)
	for i := len(events); i < n; i++ {
		e := Event{
			Ctx:  int32(i % 2),
			Call: uint64(i/3 + 1),
			Time: uint64(i * 7 % 1000), // non-monotone: deltas go negative
		}
		switch i % 5 {
		case 0:
			e.Kind = KindEnter
		case 1:
			e.Kind = KindComm
			e.SrcCtx = CtxStartup
			e.Bytes = uint64(i * 13)
		case 2:
			e.Kind = KindOps
			e.Ops = uint64(i)
		case 3:
			e.Kind = KindSys
			e.Name = "read"
			e.Bytes = 4096
		case 4:
			e.Kind = KindLeave
		}
		events = append(events, e)
	}
	return events
}

func encodeV3(t *testing.T, events []Event, opts WriterOptions) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriterOptions(&buf, opts)
	for _, e := range events {
		if err := w.Emit(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func decodeAllEvents(t *testing.T, data []byte) []Event {
	t.Helper()
	rd := NewReader(bytes.NewReader(data))
	var got []Event
	for {
		e, err := rd.Next()
		if errors.Is(err, io.EOF) {
			return got
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, e)
	}
}

// TestV3MultiFrameRoundTrip pushes enough events through a small frame size
// that the stream holds many frames, and checks byte-exact event recovery
// through the sequential reader and several pool widths of the parallel one.
func TestV3MultiFrameRoundTrip(t *testing.T) {
	events := genEvents(1000)
	data := encodeV3(t, events, WriterOptions{FrameEvents: 64})

	got := decodeAllEvents(t, data)
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("sequential decode: %d events, want %d (or contents differ)", len(got), len(events))
	}
	want, err := ReadAllWorkers(bytes.NewReader(data), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 4, 8} {
		tr, err := ReadAllWorkers(bytes.NewReader(data), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(tr.Events, want.Events) || !reflect.DeepEqual(tr.Contexts, want.Contexts) {
			t.Fatalf("workers=%d decode differs from sequential", workers)
		}
	}
}

// TestV3SalvageFrameGranular cuts a multi-frame stream at every byte and
// checks the frame guarantee: every frame that is completely present is
// recovered in full, and nothing partial is ever served.
func TestV3SalvageFrameGranular(t *testing.T) {
	const frameEvents = 16
	events := genEvents(200)
	full := encodeV3(t, events, WriterOptions{FrameEvents: frameEvents})

	// Frame boundaries from the footer index.
	info := peekFooter(bytes.NewReader(full))
	if info == nil {
		t.Fatal("no footer on a complete stream")
	}
	if info.total != uint64(len(events)) {
		t.Fatalf("footer total %d, want %d", info.total, len(events))
	}
	type boundary struct {
		offset int // stream offset just past this frame
		events int // cumulative events through this frame
	}
	var bounds []boundary
	off, cum := len(magic), 0
	for _, fe := range info.frames {
		off += int(fe.bytes)
		cum += int(fe.events)
		bounds = append(bounds, boundary{off, cum})
	}

	for cut := len(magic); cut < len(full); cut++ {
		tr, rep, err := Salvage(bytes.NewReader(full[:cut]))
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if rep.Complete {
			t.Fatalf("cut %d: reported complete", cut)
		}
		// Complete frames at this cut must all be recovered.
		wantMin := 0
		for _, b := range bounds {
			if cut >= b.offset {
				wantMin = b.events
			}
		}
		if rep.Events < wantMin {
			t.Fatalf("cut %d: recovered %d events, %d are in complete frames", cut, rep.Events, wantMin)
		}
		// And only whole frames: recovery always lands on a frame boundary.
		if rep.Events != wantMin {
			t.Fatalf("cut %d: recovered %d events, not a frame boundary (want %d)", cut, rep.Events, wantMin)
		}
		if got := len(tr.Events) + len(tr.Contexts); got != rep.Events {
			t.Fatalf("cut %d: trace holds %d, report says %d", cut, got, rep.Events)
		}
		// The recovered prefix must match the original event sequence.
		for i, e := range tr.Events {
			orig := events[2:][i] // first two are defctx
			if !reflect.DeepEqual(e, orig) {
				t.Fatalf("cut %d: event %d = %+v, want %+v", cut, i, e, orig)
			}
		}
	}
}

// TestPreallocFromFooter checks a seekable source decodes without growing
// the event slice past the footer's declared total.
func TestPreallocFromFooter(t *testing.T) {
	events := genEvents(500)
	data := encodeV3(t, events, WriterOptions{FrameEvents: 64})
	tr, err := ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if cap(tr.Events) != len(events) {
		t.Errorf("Events cap = %d, want footer total %d (prealloc not applied)", cap(tr.Events), len(events))
	}
	if len(tr.Events) != len(events)-2 {
		t.Errorf("decoded %d events, want %d", len(tr.Events), len(events)-2)
	}
}

// TestDeltaEdgeCases round-trips call numbers and timestamps at the extremes
// of uint64, where the zigzag delta wraps.
func TestDeltaEdgeCases(t *testing.T) {
	events := []Event{
		{Kind: KindEnter, Call: math.MaxUint64, Time: math.MaxUint64},
		{Kind: KindLeave, Call: 0, Time: 0},
		{Kind: KindEnter, Call: math.MaxUint64 / 2, Time: math.MaxUint64/2 + 1},
		{Kind: KindLeave, Call: math.MaxUint64, Time: 1},
		{Kind: KindOps, Call: 1, Time: math.MaxUint64},
	}
	data := encodeV3(t, events, WriterOptions{FrameEvents: 2})
	tr, err := ReadAllWorkers(bytes.NewReader(data), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.Events, events) {
		t.Fatalf("extreme delta round-trip: got %+v", tr.Events)
	}
}

// TestWriterStatsAndCompression checks the pipeline counters add up and the
// format actually compresses a repetitive stream.
func TestWriterStatsAndCompression(t *testing.T) {
	events := genEvents(4000)
	var buf bytes.Buffer
	w := NewWriterOptions(&buf, WriterOptions{FrameEvents: 256})
	for _, e := range events {
		if err := w.Emit(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Events != uint64(len(events)) {
		t.Errorf("Stats.Events = %d, want %d", st.Events, len(events))
	}
	wantFrames := uint64((len(events) + 255) / 256)
	if st.Frames != wantFrames {
		t.Errorf("Stats.Frames = %d, want %d", st.Frames, wantFrames)
	}
	if st.QueueDepth != 0 {
		t.Errorf("Stats.QueueDepth = %d after Close", st.QueueDepth)
	}
	if st.RawBytes == 0 || st.CompressedBytes == 0 {
		t.Error("byte counters not populated")
	}
	if st.CompressedBytes >= st.RawBytes {
		t.Errorf("no compression: %d compressed vs %d raw", st.CompressedBytes, st.RawBytes)
	}
	// The whole file, framing included, must be at least 2x smaller than
	// the same events as flat varint records.
	if flat := flatRecordBytes(events); buf.Len()*2 > flat {
		t.Errorf("file %d bytes, flat records %d: less than 2x smaller", buf.Len(), flat)
	}
}

// flatRecordBytes is the size of events as flat varint records — a kind
// byte, eight uvarints and the name — the baseline the framed, compressed
// format must beat.
func flatRecordBytes(events []Event) int {
	var buf [binary.MaxVarintLen64]byte
	n := 0
	for _, e := range events {
		n += 1 + len(e.Name)
		for _, v := range [...]uint64{zigzag(e.Ctx), e.Call, zigzag(e.SrcCtx), e.SrcCall, e.Bytes, e.Ops, e.Time, uint64(len(e.Name))} {
			n += binary.PutUvarint(buf[:], v)
		}
	}
	return n
}

// TestParallelCorruptFrame damages one mid-stream frame and checks the
// parallel reader reports it as corruption, like the sequential one.
func TestParallelCorruptFrame(t *testing.T) {
	events := genEvents(400)
	full := encodeV3(t, events, WriterOptions{FrameEvents: 32})
	info := peekFooter(bytes.NewReader(full))
	if info == nil || len(info.frames) < 4 {
		t.Fatalf("want several frames, got %+v", info)
	}
	// Flip a byte inside the third frame's payload.
	off := len(magic)
	for _, fe := range info.frames[:2] {
		off += int(fe.bytes)
	}
	mut := append([]byte{}, full...)
	mut[off+int(info.frames[2].bytes)/2] ^= 0x10
	for _, workers := range []int{1, 4} {
		if _, err := ReadAllWorkers(bytes.NewReader(mut), workers); err == nil {
			t.Errorf("workers=%d: corrupt frame accepted", workers)
		}
	}
}

// TestFrameHeaderSanity rejects headers whose declared sizes could not hold
// their declared event counts or exceed the allocation caps.
func TestFrameHeaderSanity(t *testing.T) {
	cases := [][]byte{
		// events > maxFrameEvents
		appendUvarints([]byte{}, maxFrameEvents+1, 100, 10, 0),
		// rawSize > maxFrameBytes
		appendUvarints([]byte{}, 1, maxFrameBytes+1, 10, 0),
		// compSize > maxFrameBytes
		appendUvarints([]byte{}, 1, 100, maxFrameBytes+1, 0),
		// 100 events cannot fit in 9 payload bytes
		appendUvarints([]byte{}, 100, 9, 5, 0),
	}
	for i, c := range cases {
		if _, err := readFrameHeader(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d: implausible header accepted", i)
		}
	}
}

func appendUvarints(dst []byte, vs ...uint64) []byte {
	for _, v := range vs {
		dst = appendUvarint(dst, v)
	}
	return dst
}

func appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

func TestSalvageStatsString(t *testing.T) {
	// Smoke-check the v3 salvage report phrasing on a mid-frame cut.
	events := genEvents(100)
	full := encodeV3(t, events, WriterOptions{FrameEvents: 16})
	_, rep, err := Salvage(bytes.NewReader(full[:len(full)*3/4]))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Complete {
		t.Fatal("cut stream reported complete")
	}
	if s := rep.String(); s == "" {
		t.Fatal("empty report")
	}
	_ = fmt.Sprintf("%v", rep)
}
