package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"

	"sigil/internal/trace"
	"sigil/internal/workloads"
)

// captureEvents profiles one workload in one mode with an in-memory sink and
// returns the emitted event stream — the ground truth the event file must
// preserve exactly.
func captureEvents(t *testing.T, workload string, opts Options) []trace.Event {
	t.Helper()
	prog, input, err := workloads.Build(workload, workloads.SimSmall)
	if err != nil {
		t.Fatal(err)
	}
	buf := &trace.Buffer{}
	opts.Events = buf
	if _, err := Run(prog, opts, input); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return buf.Events
}

// decodeStream reads every record back in stream order, context definitions
// included, so the comparison covers ordering, not just content.
func decodeStream(t *testing.T, data []byte) []trace.Event {
	t.Helper()
	rd := trace.NewReader(bytes.NewReader(data))
	var out []trace.Event
	for {
		e, err := rd.Next()
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
	}
}

// TestEventFileRoundTripOnWorkloads is the event file's correctness pin:
// for every workload × mode, the event stream written through the framed,
// compressed writer and read back — sequentially and in parallel — must be
// identical, event for event, to the events as emitted.
func TestEventFileRoundTripOnWorkloads(t *testing.T) {
	modes := []struct {
		name string
		opts Options
	}{
		{"baseline", Options{}},
		{"reuse", Options{TrackReuse: true}},
		{"line", Options{LineGranularity: true}},
	}
	names := workloads.Names()
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			ws := names
			if testing.Short() && mode.name != "baseline" {
				ws = names[:min(3, len(names))]
			}
			for _, name := range ws {
				t.Run(name, func(t *testing.T) {
					emitted := captureEvents(t, name, mode.opts)

					var buf bytes.Buffer
					// A small frame size forces multiple frames even on
					// SimSmall streams, so the delta reset at frame
					// boundaries is actually exercised.
					w := trace.NewWriterOptions(&buf, trace.WriterOptions{FrameEvents: 512})
					for _, e := range emitted {
						if err := w.Emit(e); err != nil {
							t.Fatal(err)
						}
					}
					if err := w.Close(); err != nil {
						t.Fatal(err)
					}

					decoded := decodeStream(t, buf.Bytes())
					if len(decoded) != len(emitted) {
						t.Fatalf("decoded %d events, emitted %d", len(decoded), len(emitted))
					}
					for i := range decoded {
						if decoded[i] != emitted[i] {
							t.Fatalf("event %d: decoded %+v, emitted %+v", i, decoded[i], emitted[i])
						}
					}

					// The parallel decode must agree with the sequential one.
					seq, err := trace.ReadAllWorkers(bytes.NewReader(buf.Bytes()), 1)
					if err != nil {
						t.Fatal(err)
					}
					par, err := trace.ReadAllWorkers(bytes.NewReader(buf.Bytes()), 4)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(seq.Events, par.Events) || !reflect.DeepEqual(seq.Contexts, par.Contexts) {
						t.Fatal("parallel decode differs from sequential")
					}

					// And the compression must actually pay: real streams
					// are at least 2x smaller than flat varint records.
					if flat := flatRecordBytes(emitted); len(emitted) > 1000 && buf.Len()*2 > flat {
						t.Errorf("file %d bytes vs flat records %d: less than 2x smaller", buf.Len(), flat)
					}
				})
			}
		})
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
