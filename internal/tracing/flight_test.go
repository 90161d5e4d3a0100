package tracing

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestFlightRecordAndSnapshot(t *testing.T) {
	f := NewFlight(8)
	f.Record(KindPhase, "run", 0, 0)
	f.Record(KindFault, "safeio.rename", 3, 1)
	f.Record(KindBudget, "instrs", 1000, 1024)

	evs := f.Snapshot()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	for i, want := range []struct {
		kind Kind
		name string
	}{{KindPhase, "run"}, {KindFault, "safeio.rename"}, {KindBudget, "instrs"}} {
		if evs[i].Kind != want.kind || evs[i].Name != want.name {
			t.Fatalf("event %d = %+v, want %v %q", i, evs[i], want.kind, want.name)
		}
		if evs[i].Seq != uint64(i+1) {
			t.Fatalf("event %d Seq = %d, want %d", i, evs[i].Seq, i+1)
		}
	}
	if evs[2].A != 1000 || evs[2].B != 1024 {
		t.Fatalf("budget payload = %+v", evs[2])
	}
	if f.Recorded() != 3 || f.Overwritten() != 0 {
		t.Fatalf("Recorded=%d Overwritten=%d, want 3, 0", f.Recorded(), f.Overwritten())
	}
}

func TestFlightWraparoundKeepsNewest(t *testing.T) {
	f := NewFlight(8)
	for i := 0; i < 20; i++ {
		f.Record(KindStall, "writer", uint64(i), 0)
	}
	evs := f.Snapshot()
	if len(evs) != 8 {
		t.Fatalf("got %d events after wrap, want 8", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(13+i) {
			t.Fatalf("event %d Seq = %d, want %d (oldest-first, newest kept)", i, e.Seq, 13+i)
		}
	}
	if f.Overwritten() != 12 {
		t.Fatalf("Overwritten = %d, want 12", f.Overwritten())
	}
}

func TestFlightConcurrentRecordSnapshot(t *testing.T) {
	f := NewFlight(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				f.Record(KindStall, "writer", uint64(g), uint64(i))
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			evs := f.Snapshot()
			last := uint64(0)
			for _, e := range evs {
				if e.Seq <= last {
					t.Errorf("snapshot not ordered: %d after %d", e.Seq, last)
					return
				}
				last = e.Seq
			}
		}
	}()
	wg.Wait()
	<-done
	if f.Recorded() != 8*500 {
		t.Fatalf("Recorded = %d, want %d", f.Recorded(), 8*500)
	}
}

func TestFlightHandlerServesJSON(t *testing.T) {
	f := NewFlight(8)
	f.Record(KindDegraded, "sink", 1, 0)
	rr := httptest.NewRecorder()
	f.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/flightrecorder", nil))
	if rr.Code != 200 {
		t.Fatalf("status = %d", rr.Code)
	}
	var dump struct {
		Size     int    `json:"size"`
		Recorded uint64 `json:"recorded"`
		Events   []struct {
			Kind string `json:"kind"`
			Name string `json:"name"`
			A    uint64 `json:"a"`
		} `json:"events"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &dump); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rr.Body.String())
	}
	if dump.Size != 8 || dump.Recorded != 1 || len(dump.Events) != 1 {
		t.Fatalf("dump = %+v", dump)
	}
	// The kind is served as its name, not a number.
	if e := dump.Events[0]; e.Kind != "degraded" || e.Name != "sink" || e.A != 1 {
		t.Fatalf("event = %+v, want degraded sink a=1", e)
	}
}

func TestFlightKindJSONNames(t *testing.T) {
	b, err := json.Marshal(FlightEvent{Seq: 1, Kind: KindQuarantine, Name: "frame"})
	if err != nil {
		t.Fatal(err)
	}
	if want := `"kind":"quarantine"`; !strings.Contains(string(b), want) {
		t.Fatalf("marshal = %s, want %s", b, want)
	}
}

func TestGlobalFlight(t *testing.T) {
	before := Flight().Recorded()
	Flight().Record(KindFault, "test.point", 1, 2)
	if Flight().Recorded() != before+1 {
		t.Fatal("global recorder did not record")
	}
}
