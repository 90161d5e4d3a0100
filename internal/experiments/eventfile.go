package experiments

import (
	"bytes"
	"fmt"
	"sort"

	"sigil/internal/trace"
	"sigil/internal/workloads"
)

// EventFileRow is one workload's on-disk event-file footprint in the
// framed, delta-encoded, DEFLATE-compressed format the writer produces.
type EventFileRow struct {
	Name          string
	Events        int     // records in the stream, context definitions included
	Bytes         int     // file size
	Frames        uint64  // frames written
	BytesPerEvent float64 // Bytes / Events
}

// EventFileResult is the event-file footprint study across all workloads.
type EventFileResult struct {
	Rows []EventFileRow
}

// streamEvents reconstructs a workload trace's full event sequence:
// context definitions first (ascending ID, so parents precede children —
// IDs are assigned in definition order), then the event stream.
func streamEvents(tr *trace.Trace) []trace.Event {
	ids := make([]int32, 0, len(tr.Contexts))
	for id := range tr.Contexts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	events := make([]trace.Event, 0, len(ids)+len(tr.Events))
	for _, id := range ids {
		info := tr.Contexts[id]
		events = append(events, trace.Event{
			Kind: trace.KindDefCtx, Ctx: info.ID, SrcCtx: info.Parent, Name: info.Name,
		})
	}
	return append(events, tr.Events...)
}

// EventFileStats encodes every workload's simsmall event stream and reports
// the footprint it occupies on disk.
func (s *Suite) EventFileStats() (*EventFileResult, error) {
	out := &EventFileResult{}
	for _, name := range workloads.Names() {
		tr, err := s.Trace(name)
		if err != nil {
			return nil, err
		}
		events := streamEvents(tr)

		var buf bytes.Buffer
		w := trace.NewWriter(&buf)
		for _, e := range events {
			if err := w.Emit(e); err != nil {
				return nil, err
			}
		}
		if err := w.Close(); err != nil {
			return nil, err
		}

		row := EventFileRow{
			Name:   name,
			Events: len(events),
			Bytes:  buf.Len(),
			Frames: w.Stats().Frames,
		}
		if row.Events > 0 {
			row.BytesPerEvent = float64(row.Bytes) / float64(row.Events)
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Render prints the footprint study.
func (r *EventFileResult) Render() string {
	tb := &table{
		title:   "Event-file footprint (simsmall)",
		headers: []string{"workload", "events", "bytes", "frames", "bytes/event"},
	}
	for _, row := range r.Rows {
		tb.add(row.Name,
			fmt.Sprintf("%d", row.Events),
			fmt.Sprintf("%d", row.Bytes),
			fmt.Sprintf("%d", row.Frames),
			f2(row.BytesPerEvent))
	}
	return tb.String()
}
