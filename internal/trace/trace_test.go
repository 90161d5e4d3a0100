package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sampleEvents() []Event {
	return []Event{
		{Kind: KindDefCtx, Ctx: 0, SrcCtx: -1, Name: "main"},
		{Kind: KindDefCtx, Ctx: 1, SrcCtx: 0, Name: "worker"},
		{Kind: KindEnter, Ctx: 0, Call: 1, Time: 0},
		{Kind: KindOps, Ctx: 0, Call: 1, Ops: 12, Time: 30},
		{Kind: KindEnter, Ctx: 1, Call: 2, Time: 31},
		{Kind: KindComm, Ctx: 1, Call: 2, SrcCtx: 0, SrcCall: 1, Bytes: 64, Time: 40},
		{Kind: KindComm, Ctx: 1, Call: 2, SrcCtx: CtxStartup, SrcCall: 0, Bytes: 8, Time: 41},
		{Kind: KindOps, Ctx: 1, Call: 2, Ops: 99, Time: 50},
		{Kind: KindSys, Ctx: 1, Call: 2, Bytes: 16, Ops: 0, Time: 55, Name: "write"},
		{Kind: KindLeave, Ctx: 1, Call: 2, Time: 60},
		{Kind: KindLeave, Ctx: 0, Call: 1, Time: 61},
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	events := sampleEvents()
	for _, e := range events {
		if err := w.Emit(e); err != nil {
			t.Fatalf("Emit: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r := NewReader(&buf)
	for i, want := range events {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("event %d = %+v, want %+v", i, got, want)
		}
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestReadAllSeparatesContexts(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, e := range sampleEvents() {
		if err := w.Emit(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Contexts) != 2 {
		t.Errorf("contexts = %d, want 2", len(tr.Contexts))
	}
	if tr.Contexts[1].Name != "worker" || tr.Contexts[1].Parent != 0 {
		t.Errorf("ctx 1 = %+v", tr.Contexts[1])
	}
	if len(tr.Events) != len(sampleEvents())-2 {
		t.Errorf("events = %d", len(tr.Events))
	}
	if tr.CtxName(0) != "main" || tr.CtxName(CtxStartup) != "@startup" ||
		tr.CtxName(CtxKernel) != "@kernel" || tr.CtxName(99) == "" {
		t.Error("CtxName wrong")
	}
}

func TestEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 0 {
		t.Error("events in empty stream")
	}
}

func TestBadMagic(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte("not an event file at all")))
	if _, err := r.Next(); err == nil {
		t.Error("bad magic accepted")
	}
}

// TestUnsupportedVersionRefused rewrites a real stream's version byte:
// every entry point must refuse anything but the current version.
func TestUnsupportedVersionRefused(t *testing.T) {
	good := encodeStream(t, sampleEvents())
	for _, v := range []byte{0, 1, 2, 4, 0xFF} {
		data := bytes.Clone(good)
		data[len(magic)-1] = v
		want := fmt.Sprintf("unsupported format version %d", v)
		_, nextErr := NewReader(bytes.NewReader(data)).Next()
		_, allErr := ReadAll(bytes.NewReader(data))
		_, parErr := ReadAllWorkers(bytes.NewReader(data), 4)
		_, _, salvErr := Salvage(bytes.NewReader(data))
		for name, err := range map[string]error{"Next": nextErr, "ReadAll": allErr, "ReadAllWorkers": parErr, "Salvage": salvErr} {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("version %d: %s err = %v, want %q", v, name, err, want)
			}
		}
	}
}

func TestTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Emit(Event{Kind: KindOps, Ctx: 3, Ops: 500000}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := len(magic) + 1; cut < len(full); cut++ {
		// Cuts inside the footer leave the event itself readable, so
		// drain the stream: a truncated file must never end in clean EOF.
		r := NewReader(bytes.NewReader(full[:cut]))
		var err error
		for {
			if _, err = r.Next(); err != nil {
				break
			}
		}
		if errors.Is(err, io.EOF) && !errors.Is(err, ErrTruncated) {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestEmitAfterClose(t *testing.T) {
	w := NewWriter(&bytes.Buffer{})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Emit(Event{}); err == nil {
		t.Error("emit after close accepted")
	}
}

func TestBufferSink(t *testing.T) {
	var b Buffer
	for _, e := range sampleEvents() {
		if err := b.Emit(e); err != nil {
			t.Fatal(err)
		}
	}
	tr := FromBuffer(&b)
	if len(tr.Contexts) != 2 || len(tr.Events) != len(sampleEvents())-2 {
		t.Errorf("FromBuffer: %d contexts, %d events", len(tr.Contexts), len(tr.Events))
	}
}

func TestZigzagRoundTripProperty(t *testing.T) {
	prop := func(v int32) bool { return unzigzag(zigzag(v)) == v }
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
	for _, v := range []int32{0, -1, -2, 1, 1 << 30, -(1 << 30)} {
		if unzigzag(zigzag(v)) != v {
			t.Errorf("zigzag(%d) broken", v)
		}
	}
}

func TestEventRoundTripProperty(t *testing.T) {
	prop := func(kind uint8, ctx int32, call uint64, src int32, srcCall, b, ops, tm uint64, name string) bool {
		if len(name) > 100 {
			name = name[:100]
		}
		want := Event{Kind: Kind(kind % 6), Ctx: ctx, Call: call, SrcCtx: src,
			SrcCall: srcCall, Bytes: b, Ops: ops, Time: tm, Name: name}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if w.Emit(want) != nil || w.Close() != nil {
			return false
		}
		got, err := NewReader(&buf).Next()
		return err == nil && reflect.DeepEqual(got, want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestKindString(t *testing.T) {
	if KindComm.String() != "comm" || Kind(200).String() == "" {
		t.Error("Kind.String broken")
	}
}
