package tracing

import (
	"encoding/json"
	"io"
	"sort"
)

// chromeEvent is one entry in the Chrome trace_event "traceEvents" array.
// Field meanings follow the Trace Event Format: ph is the phase ("X"
// complete, "C" counter, "i" instant, "M" metadata), ts/dur are in
// microseconds relative to the trace epoch.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  *int64         `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  uint64         `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

const chromePid = 1

// flightTid is the synthetic thread instant flight events render on; real
// tracks are numbered from 1 by Recorder.Local.
const flightTid = 0

// WriteChrome renders the recorder's spans and sample timelines — plus the
// given flight events, if any — in Chrome trace_event JSON object format,
// loadable in Perfetto or about://tracing. Spans become "X" duration
// events, poll samples a "telemetry" counter track, and flight events
// (fault firings, stalls, budget kills) thread-scoped instants.
func WriteChrome(w io.Writer, rec *Recorder, flight []FlightEvent) error {
	var spans []Span
	var tracks []Track
	if rec != nil {
		spans = rec.Spans()
		tracks = rec.Tracks()
	}

	epoch := int64(0)
	for _, s := range spans {
		if epoch == 0 || s.StartNanos < epoch {
			epoch = s.StartNanos
		}
	}
	for _, t := range tracks {
		for _, s := range t.Samples {
			if epoch == 0 || s.TimeNanos < epoch {
				epoch = s.TimeNanos
			}
		}
	}
	for _, e := range flight {
		if epoch == 0 || e.TimeNanos < epoch {
			epoch = e.TimeNanos
		}
	}
	us := func(nanos int64) int64 {
		d := nanos - epoch
		if d < 0 {
			d = 0
		}
		return d / 1000
	}

	var evs []chromeEvent
	evs = append(evs, chromeEvent{
		Name: "process_name", Ph: "M", Pid: chromePid, Tid: flightTid,
		Args: map[string]any{"name": "sigil"},
	})
	if len(flight) > 0 {
		evs = append(evs, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: chromePid, Tid: flightTid,
			Args: map[string]any{"name": "flight"},
		})
	}
	for _, t := range tracks {
		evs = append(evs, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: chromePid, Tid: t.ID,
			Args: map[string]any{"name": t.Name},
		})
	}

	var timeline []chromeEvent
	for _, s := range spans {
		dur := s.WallNanos / 1000
		args := map[string]any{"cpu_us": s.CPUNanos / 1000}
		for _, a := range s.Attrs {
			args[a.Key] = a.Value
		}
		// Counter keys are unique across layers, so the args take them flat.
		for _, keys := range s.Deltas {
			for k, v := range keys {
				args[k] = v
			}
		}
		timeline = append(timeline, chromeEvent{
			Name: s.Name, Ph: "X", Ts: us(s.StartNanos), Dur: &dur,
			Pid: chromePid, Tid: s.Track, Args: args,
		})
	}

	for _, t := range tracks {
		for _, s := range t.Samples {
			timeline = append(timeline, chromeEvent{
				Name: "telemetry", Ph: "C", Ts: us(s.TimeNanos),
				Pid: chromePid, Tid: t.ID,
				Args: map[string]any{
					"instrs":                s.Instrs,
					"heap_bytes":            s.HeapBytes,
					"shadow_bytes_resident": s.ShadowBytesResident,
					"events_emitted":        s.EventsEmitted,
				},
			})
		}
	}

	for _, e := range flight {
		timeline = append(timeline, chromeEvent{
			Name: e.Kind.String() + ":" + e.Name, Ph: "i", Ts: us(e.TimeNanos),
			Pid: chromePid, Tid: flightTid, S: "t",
			Args: map[string]any{"a": e.A, "b": e.B},
		})
	}

	// Emit the timeline in global timestamp order (metadata first). A
	// stable sort keeps a parent span ahead of children it started in the
	// same microsecond, so ts is monotone within every track.
	sort.SliceStable(timeline, func(i, j int) bool { return timeline[i].Ts < timeline[j].Ts })
	evs = append(evs, timeline...)

	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: evs, DisplayTimeUnit: "ms"})
}
