package experiments

import (
	"fmt"
	"testing"

	"sigil/internal/telemetry"
	"sigil/internal/tracing"
	"sigil/internal/workloads"
)

// testSpanReconciliation prewarms the full profile matrix with a tracer
// attached and checks, for every workload × mode, that the run span's
// counter deltas equal the final telemetry snapshot core froze into the
// Result — the tentpole invariant: span accounting and Result.Telemetry
// are two views of the same counters, at any worker count.
func testSpanReconciliation(t *testing.T, workers int) {
	s := NewSuite()
	s.Workers = workers
	s.Tracer = tracing.NewRecorder()
	if err := s.Prewarm(); err != nil {
		t.Fatalf("prewarm (p=%d): %v", workers, err)
	}

	trackName := make(map[uint64]string)
	for _, tr := range s.Tracer.Tracks() {
		trackName[tr.ID] = tr.Name
		if tr.SpansDropped != 0 {
			t.Errorf("track %q dropped %d spans", tr.Name, tr.SpansDropped)
		}
	}
	runByTrack := make(map[string]tracing.Span)
	for _, sp := range s.Tracer.Spans() {
		if sp.Name == "run" && sp.Parent == 0 {
			if prev, dup := runByTrack[trackName[sp.Track]]; dup {
				t.Errorf("track %q has two root run spans (%d, %d)", trackName[sp.Track], prev.ID, sp.ID)
			}
			runByTrack[trackName[sp.Track]] = sp
		}
	}

	for _, name := range workloads.Names() {
		for _, mode := range []Mode{ModeBaseline, ModeReuse, ModeLine} {
			label := fmt.Sprintf("%s/%s", name, mode)
			res, err := s.Profile(name, workloads.SimSmall, mode)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			sp, ok := runByTrack[label]
			if !ok {
				t.Errorf("%s: no run span recorded", label)
				continue
			}
			if sp.Deltas == nil {
				t.Errorf("%s: run span has no counter deltas", label)
				continue
			}
			if res.Telemetry == nil {
				t.Fatalf("%s: result has no telemetry snapshot", label)
			}
			if sp.Deltas.Instrs != res.Telemetry[telemetry.Instrs] {
				t.Errorf("%s: span instrs %d != telemetry instrs %d",
					label, sp.Deltas.Instrs, res.Telemetry[telemetry.Instrs])
			}
			if sp.Deltas.Events != res.Telemetry[telemetry.EventsEmitted] {
				t.Errorf("%s: span events %d != telemetry events %d",
					label, sp.Deltas.Events, res.Telemetry[telemetry.EventsEmitted])
			}
			if sp.Deltas.ShadowBytes != res.Telemetry[telemetry.ShadowBytesResident] {
				t.Errorf("%s: span shadow bytes %d != telemetry resident %d",
					label, sp.Deltas.ShadowBytes, res.Telemetry[telemetry.ShadowBytesResident])
			}
		}
		// The event-trace run records on its own track too.
		if _, ok := runByTrack[name+"/events"]; !ok {
			t.Errorf("%s/events: no run span recorded", name)
		}
	}
}

func TestSpanTreesReconcileSequential(t *testing.T) { testSpanReconciliation(t, 1) }

func TestSpanTreesReconcileParallel(t *testing.T) { testSpanReconciliation(t, 4) }
