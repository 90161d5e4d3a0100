package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"sigil/internal/telemetry"
	"sigil/internal/tracing"
	"sigil/internal/workloads"
)

// testSpanReconciliation prewarms the full profile matrix with a tracer
// attached and checks, for every workload × mode, that the run span's
// deltas of every counter row equal the final telemetry snapshot core froze
// into the Result: span accounting and Result.Telemetry are two views of the
// same counters, at any worker count.
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
			if res.Telemetry == nil {
				t.Fatalf("%s: result has no telemetry snapshot", label)
			}
			// Every counter row: the run span's growth equals the final
			// snapshot's growth from zero, and a run retires instructions.
			want := res.Telemetry.Deltas(telemetry.Snapshot{})
			if !reflect.DeepEqual(sp.Deltas, want) {
				t.Errorf("%s: run span deltas %v != final telemetry %v", label, sp.Deltas, want)
			}
			if sp.Deltas["vm"]["instrs"] == 0 {
				t.Errorf("%s: run span deltas carry no instructions: %v", label, sp.Deltas)
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
