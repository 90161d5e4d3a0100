package tracing

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"
)

// Kind classifies a flight-recorder event.
type Kind uint8

const (
	// KindPhase marks a run phase transition (run start/end, writer open).
	KindPhase Kind = iota + 1
	// KindFault is a fault-injection firing; Name is the point, A the hit
	// ordinal, B the injection mode.
	KindFault
	// KindStall is an event-writer backpressure stall; A is the running
	// stall count.
	KindStall
	// KindShed is a degraded-mode batch shed; A is the events dropped in
	// the batch, B the running dropped total.
	KindShed
	// KindDegraded marks the event sink entering degraded mode.
	KindDegraded
	// KindRetry is a transient sink-write retry; A is the attempt number.
	KindRetry
	// KindQuarantine is a salvage-time quarantined frame; A is the frame
	// index, B its byte length.
	KindQuarantine
	// KindBudget is a budget kill; Name is the resource, A the limit, B
	// the usage at the kill.
	KindBudget
	// KindPanic marks a panic-salvage recovery.
	KindPanic
	// KindCancel marks a run ended by context cancellation.
	KindCancel
)

var kindNames = map[Kind]string{
	KindPhase:      "phase",
	KindFault:      "fault",
	KindStall:      "stall",
	KindShed:       "shed",
	KindDegraded:   "degraded",
	KindRetry:      "retry",
	KindQuarantine: "quarantine",
	KindBudget:     "budget",
	KindPanic:      "panic",
	KindCancel:     "cancel",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalJSON renders the kind as its name so dumps read without a legend.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// FlightEvent is one recorded event. A and B are kind-specific payloads
// (documented on the Kind constants).
type FlightEvent struct {
	Seq       uint64 `json:"seq"`
	TimeNanos int64  `json:"time_nanos"`
	Kind      Kind   `json:"kind"`
	Name      string `json:"name,omitempty"`
	A         uint64 `json:"a,omitempty"`
	B         uint64 `json:"b,omitempty"`
}

// FlightRecorder is a fixed-size lock-free ring of the last N events.
// Writers claim a ticket from an atomic cursor and publish their slot under
// a per-slot sequence lock (odd while writing, even when complete), so
// recording is wait-free for writers and a concurrent Snapshot simply skips
// slots it catches mid-write. Every field of a slot is atomic, which keeps
// the inevitable post-wraparound slot reuse race-detector clean.
type FlightRecorder struct {
	mask   uint64
	ticket atomic.Uint64
	slots  []flightSlot
}

type flightSlot struct {
	seq  atomic.Uint64 // 2*ticket while complete, 2*ticket-1 while writing
	time atomic.Int64
	kind atomic.Uint32
	a    atomic.Uint64
	b    atomic.Uint64
	name atomic.Pointer[string]
}

// NewFlight builds a recorder holding the last n events (n is rounded up
// to a power of two, minimum 8).
func NewFlight(n int) *FlightRecorder {
	size := 8
	for size < n {
		size <<= 1
	}
	return &FlightRecorder{mask: uint64(size - 1), slots: make([]flightSlot, size)}
}

// global is the process flight recorder: packages that observe rare,
// process-wide events (fault injection, sink degradation) record here so a
// dump is available even when no run-level recorder was configured.
var global = NewFlight(4096)

// Flight returns the process-global flight recorder.
func Flight() *FlightRecorder { return global }

// Record appends an event. Safe from any goroutine, never blocks.
func (f *FlightRecorder) Record(k Kind, name string, a, b uint64) {
	if f == nil {
		return
	}
	t := f.ticket.Add(1)
	s := &f.slots[(t-1)&f.mask]
	s.seq.Store(2*t - 1)
	s.time.Store(time.Now().UnixNano())
	s.kind.Store(uint32(k))
	s.a.Store(a)
	s.b.Store(b)
	s.name.Store(&name)
	s.seq.Store(2 * t)
}

// Recorded reports how many events have ever been recorded.
func (f *FlightRecorder) Recorded() uint64 {
	if f == nil {
		return 0
	}
	return f.ticket.Load()
}

// Overwritten reports how many events have been lost to ring wraparound.
func (f *FlightRecorder) Overwritten() uint64 {
	if f == nil {
		return 0
	}
	n := f.ticket.Load()
	if size := uint64(len(f.slots)); n > size {
		return n - size
	}
	return 0
}

// Snapshot returns the ring's surviving events oldest-first. Slots caught
// mid-write (or recycled between the two sequence reads) are skipped; under
// a concurrent writer the snapshot is a consistent subset, never torn.
func (f *FlightRecorder) Snapshot() []FlightEvent {
	if f == nil {
		return nil
	}
	out := make([]FlightEvent, 0, len(f.slots))
	for i := range f.slots {
		s := &f.slots[i]
		seq1 := s.seq.Load()
		if seq1 == 0 || seq1%2 != 0 {
			continue
		}
		ev := FlightEvent{
			Seq:       seq1 / 2,
			TimeNanos: s.time.Load(),
			Kind:      Kind(s.kind.Load()),
			A:         s.a.Load(),
			B:         s.b.Load(),
		}
		if p := s.name.Load(); p != nil {
			ev.Name = *p
		}
		if s.seq.Load() != seq1 {
			continue
		}
		out = append(out, ev)
	}
	sortEvents(out)
	return out
}

func sortEvents(evs []FlightEvent) {
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && evs[j].Seq < evs[j-1].Seq; j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
}

// FlightDump is the JSON shape served by /debug/flightrecorder and embedded
// in run reports.
type FlightDump struct {
	Size        int           `json:"size"`
	Recorded    uint64        `json:"recorded"`
	Overwritten uint64        `json:"overwritten"`
	Events      []FlightEvent `json:"events"`
}

// Dump snapshots the ring into the serializable dump form.
func (f *FlightRecorder) Dump() *FlightDump {
	if f == nil {
		return nil
	}
	return &FlightDump{
		Size:        len(f.slots),
		Recorded:    f.Recorded(),
		Overwritten: f.Overwritten(),
		Events:      f.Snapshot(),
	}
}

// Handler serves the ring as JSON, for the telemetry server's
// /debug/flightrecorder endpoint.
func (f *FlightRecorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(f.Dump()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
