package tracing

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"sigil/internal/telemetry"
)

// chromeCheckEvent mirrors the trace_event fields the schema test pins.
type chromeCheckEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   *int64         `json:"ts"`
	Dur  *int64         `json:"dur"`
	Pid  *int           `json:"pid"`
	Tid  *uint64        `json:"tid"`
	S    string         `json:"s"`
	Args map[string]any `json:"args"`
}

// TestChromeTraceSchema validates the exporter's output against the Chrome
// trace_event contract: the object form with a traceEvents array; every
// event carries ph/pid/tid; duration events carry ts and dur; timestamps
// within a track are monotonically non-decreasing.
func TestChromeTraceSchema(t *testing.T) {
	rec := NewRecorder()
	b := rec.Local("main")
	run := b.Start("run", A("workload", "fft"))
	base := time.Now().UnixNano()
	for i := 0; i < 5; i++ {
		b.Sample(Sample{TimeNanos: base + int64(i)*1e6, Instrs: uint64(i) * 16384})
	}
	inner := b.Start("write")
	time.Sleep(time.Millisecond)
	inner.End()
	run.End()

	w := rec.Local("writer")
	w.Start("encode").End()

	flight := []FlightEvent{
		{Seq: 1, TimeNanos: base, Kind: KindFault, Name: "safeio.sync", A: 1, B: 2},
		{Seq: 2, TimeNanos: base + 1e6, Kind: KindBudget, Name: "instrs", A: 10, B: 11},
	}

	var buf bytes.Buffer
	if err := WriteChrome(&buf, rec, flight); err != nil {
		t.Fatal(err)
	}

	var tr struct {
		TraceEvents     []chromeCheckEvent `json:"traceEvents"`
		DisplayTimeUnit string             `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("no traceEvents emitted")
	}

	counts := map[string]int{}
	lastTs := map[uint64]int64{}
	for i, e := range tr.TraceEvents {
		counts[e.Ph]++
		if e.Ph == "" {
			t.Fatalf("event %d missing ph: %+v", i, e)
		}
		if e.Pid == nil || e.Tid == nil {
			t.Fatalf("event %d missing pid/tid: %+v", i, e)
		}
		switch e.Ph {
		case "X":
			if e.Ts == nil || e.Dur == nil {
				t.Fatalf("duration event %d missing ts/dur: %+v", i, e)
			}
			if *e.Dur < 0 {
				t.Fatalf("duration event %d has negative dur: %+v", i, e)
			}
		case "C", "i":
			if e.Ts == nil {
				t.Fatalf("%s event %d missing ts: %+v", e.Ph, i, e)
			}
			if e.Ph == "i" && e.S == "" {
				t.Fatalf("instant event %d missing scope: %+v", i, e)
			}
		case "M":
			if e.Args["name"] == "" {
				t.Fatalf("metadata event %d missing args.name: %+v", i, e)
			}
			continue
		default:
			t.Fatalf("unexpected phase %q in event %d", e.Ph, i)
		}
		if e.Ts != nil {
			if *e.Ts < lastTs[*e.Tid] {
				t.Fatalf("ts went backwards on tid %d: %d after %d (event %d)",
					*e.Tid, *e.Ts, lastTs[*e.Tid], i)
			}
			lastTs[*e.Tid] = *e.Ts
		}
	}
	if counts["X"] != 3 {
		t.Fatalf("got %d duration events, want 3 spans", counts["X"])
	}
	if counts["C"] != 5 {
		t.Fatalf("got %d counter events, want 5 samples", counts["C"])
	}
	if counts["i"] != 2 {
		t.Fatalf("got %d instant events, want 2 flight events", counts["i"])
	}
	if counts["M"] < 3 { // process_name + flight thread + 2 tracks
		t.Fatalf("got %d metadata events, want >= 3", counts["M"])
	}
}

// TestChromeGolden pins the exact serialized form for a fixed input so
// unintentional format drift is caught, without depending on wall time.
// Span args carry the counter deltas flat, and the counter track names its
// values, under the telemetry table's keys.
func TestChromeGolden(t *testing.T) {
	var m telemetry.Metrics
	rec := NewRecorder()
	b := rec.Local("main")
	b.SetMetrics(&m)
	s := b.Start("run", A("mode", "sigil"))
	m.Store(telemetry.Instrs, 300)
	m.Store(telemetry.CacheL1Misses, 5)
	b.Sample(Sample{TimeNanos: 1_500_000, Instrs: 300, ShadowBytesResident: 64, EventsEmitted: 2})
	s.End()
	// Overwrite clock-derived fields for determinism.
	b.spans[0].StartNanos = 1_000_000
	b.spans[0].WallNanos = 2_000_000
	b.spans[0].CPUNanos = 1_000_000

	var buf bytes.Buffer
	if err := WriteChrome(&buf, rec, nil); err != nil {
		t.Fatal(err)
	}
	// encoding/json sorts map keys, so byte-comparison is deterministic.
	got := buf.String()
	want := `{"traceEvents":[` +
		`{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"sigil"}},` +
		`{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":1,"args":{"name":"main"}},` +
		`{"name":"run","ph":"X","ts":0,"dur":2000,"pid":1,"tid":1,"args":{"cache_l1_misses":5,"cpu_us":1000,"instrs":300,"mode":"sigil"}},` +
		`{"name":"telemetry","ph":"C","ts":500,"pid":1,"tid":1,"args":{"events_emitted":2,"heap_bytes":0,"instrs":300,"shadow_bytes_resident":64}}` +
		`],"displayTimeUnit":"ms"}` + "\n"
	if got != want {
		t.Fatalf("golden mismatch:\n got: %s\nwant: %s", got, want)
	}
}
