package tracing

import "sigil/internal/telemetry"

// SpanNode is a span with its children, the tree form used in run reports.
type SpanNode struct {
	Span
	Children []*SpanNode `json:"children,omitempty"`
}

// Tree nests a flat span list by parent links. Spans whose parent is
// missing (dropped to the per-buf cap, or still open when the report was
// built) become roots rather than vanishing.
func Tree(spans []Span) []*SpanNode {
	nodes := make(map[uint64]*SpanNode, len(spans))
	for _, s := range spans {
		nodes[s.ID] = &SpanNode{Span: s}
	}
	var roots []*SpanNode
	for _, s := range spans {
		n := nodes[s.ID]
		if p, ok := nodes[s.Parent]; ok && s.Parent != s.ID {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	return roots
}

// Report is the skeleton of the machine-readable record of one tool
// invocation: what ran, how it ended, the span tree, the final telemetry
// snapshot and — for runs that ended badly — the flight-recorder dump. The
// tool's own writer adds the event sink's and the salvage pass's stats,
// which the trace package declares.
type Report struct {
	Tool       string              `json:"tool"`
	Args       []string            `json:"args,omitempty"`
	StartNanos int64               `json:"start_nanos"`
	WallNanos  int64               `json:"wall_nanos"`
	Outcome    string              `json:"outcome"`
	Error      string              `json:"error,omitempty"`
	Spans      []*SpanNode         `json:"spans,omitempty"`
	Tracks     []Track             `json:"tracks,omitempty"`
	Telemetry  *telemetry.Snapshot `json:"telemetry,omitempty"`
	Flight     *FlightDump         `json:"flight,omitempty"`
}

// NewReport seeds a report with the recorder's merged span tree and track
// timelines; the caller fills in outcome and telemetry. The recorder's
// goroutines must be quiescent (see Recorder).
func NewReport(tool string, rec *Recorder) *Report {
	r := &Report{Tool: tool, Outcome: "ok"}
	if rec != nil {
		r.Spans = Tree(rec.Spans())
		r.Tracks = rec.Tracks()
	}
	return r
}
