package experiments

import (
	"fmt"

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

// EventFileStats reports the footprint of the event file every workload's
// simsmall run writes: the suite's cached event runs write it into memory,
// as sigil -events writes it to disk.
func (s *Suite) EventFileStats() (*EventFileResult, error) {
	out := &EventFileResult{}
	for _, name := range workloads.Names() {
		r, err := s.eventRun(name)
		if err != nil {
			return nil, err
		}
		row := EventFileRow{
			Name:   name,
			Events: int(r.stats.Events),
			Bytes:  r.bytes,
			Frames: r.stats.Frames,
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
