package experiments

import (
	"time"

	"sigil/internal/telemetry"
	"sigil/internal/workloads"
)

// TelemetryRow summarizes one workload's run from its own telemetry
// snapshot: wall time, retired instructions and throughput, and the peak
// shadow-memory footprint — the suite's self-overhead numbers.
type TelemetryRow struct {
	Name             string
	Wall             time.Duration
	Instrs           uint64
	InstrsPerSec     float64
	PeakShadowChunks uint64
	PeakShadowBytes  uint64
	Events           uint64
}

// TelemetryResult holds the per-workload self-observation summary.
type TelemetryResult struct {
	Rows []TelemetryRow
}

// RunTelemetry collects every workload's end-of-run telemetry snapshot
// (simsmall, baseline mode) into one summary table. It reuses the suite's
// cached profiles, so it costs nothing beyond the runs other figures
// already need.
func (s *Suite) RunTelemetry() (*TelemetryResult, error) {
	out := &TelemetryResult{}
	for _, name := range workloads.Names() {
		r, err := s.Profile(name, workloads.SimSmall, ModeBaseline)
		if err != nil {
			return nil, err
		}
		row := TelemetryRow{Name: name, Wall: r.Wall}
		if t := r.Telemetry; t != nil {
			row.Instrs = t[telemetry.Instrs]
			row.InstrsPerSec = t.InstrsPerSec(time.Time{})
			row.PeakShadowChunks = t[telemetry.ShadowChunksPeak]
			row.PeakShadowBytes = t[telemetry.ShadowBytesPeak]
			row.Events = t[telemetry.EventsEmitted]
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Render prints the telemetry summary table.
func (r *TelemetryResult) Render() string {
	tb := &table{
		title:   "Run telemetry: per-workload wall time and profiler footprint (simsmall)",
		headers: []string{"workload", "wall", "instrs", "minstr/s", "peak chunks", "peak shadow"},
	}
	for _, row := range r.Rows {
		tb.add(row.Name,
			row.Wall.Round(time.Millisecond).String(),
			u(row.Instrs),
			f2(row.InstrsPerSec/1e6),
			u(row.PeakShadowChunks),
			mib(row.PeakShadowBytes))
	}
	return tb.String()
}
