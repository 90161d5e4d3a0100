package critpath

import (
	"testing"

	"sigil/internal/trace"
)

// recordSize is the width of one event record in FuzzAnalyze's input.
const recordSize = 8

// maxRecords bounds a fuzzed stream, so chain lengths of operations below
// 2^40 stay exact in float64.
const maxRecords = 1024

// recordTrace reads data as up to maxRecords fixed-width records, each one
// event over 4 contexts and 8 call numbers: kind (enter, leave, comm, ops,
// sys), context, call, producer context (-1 is @startup), producer call,
// bytes, an operation count below 16 and a left shift for it, which is 0
// for three inputs in four. Small counts make ties between chains common;
// the shift reaches counts up to 2^63. Mutated event files nearly all fail
// their CRC before they reach the analysis; records reach it every time.
func recordTrace(data []byte) *trace.Trace {
	tr := &trace.Trace{Contexts: map[int32]trace.CtxInfo{}}
	for len(data) >= recordSize && len(tr.Events) < maxRecords {
		r := data[:recordSize]
		data = data[recordSize:]
		tr.Events = append(tr.Events, trace.Event{
			Kind:    trace.KindEnter + trace.Kind(r[0]%5),
			Ctx:     int32(r[1] % 4),
			Call:    uint64(r[2] % 8),
			SrcCtx:  int32(r[3]%4) - 1,
			SrcCall: uint64(r[4] % 8),
			Bytes:   uint64(r[5]),
			Ops:     uint64(r[6]%16) << max(0, int(r[7])-192),
		})
	}
	return tr
}

// records is recordTrace's inverse for events whose fields fit a record.
func records(tr *trace.Trace) []byte {
	var data []byte
	for _, e := range tr.Events {
		shift := 0
		for e.Ops>>shift >= 16 {
			shift++
		}
		data = append(data, byte(e.Kind-trace.KindEnter), byte(e.Ctx), byte(e.Call),
			byte(e.SrcCtx+1), byte(e.SrcCall), byte(e.Bytes), byte(e.Ops>>shift), byte(192+shift))
	}
	return data
}

// FuzzAnalyze holds Analyze and AnalyzeWithComm to refAnalyze on small
// synthetic event streams, at 0 and 0.25 ops per byte: both must fail, or
// both must return the same analysis. On a stream both accept whose
// operation counts are below 2^40, Schedule must keep three invariants:
// one slot takes exactly SerialOps, no makespan is shorter than the
// critical path, and the slot loads sum to SerialOps.
func FuzzAnalyze(f *testing.F) {
	f.Add(records(handTrace()))
	f.Add(records(zeroOpTrace()))
	f.Add(records(tieTrace()))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := recordTrace(data)
		var base *Analysis
		for _, cost := range []float64{0, 0.25} {
			got, err := analyzeAt(tr, cost)
			want, rerr := refAnalyze(tr, cost)
			if (err == nil) != (rerr == nil) {
				t.Fatalf("%g ops/byte: error %v, reference error %v", cost, err, rerr)
			}
			if err != nil {
				return
			}
			if d := diffAnalysis(got, want); d != "" {
				t.Fatalf("%g ops/byte: %s", cost, d)
			}
			if base == nil {
				base = got
			}
		}
		for _, e := range tr.Events {
			if e.Ops >= 1<<40 {
				return
			}
		}
		for _, slots := range []int{1, 2, 3} {
			r, err := Schedule(tr, slots)
			if err != nil {
				t.Fatalf("%d slots: %v", slots, err)
			}
			if slots == 1 && r.Makespan != r.SerialOps {
				t.Fatalf("1 slot: makespan %d, serial %d", r.Makespan, r.SerialOps)
			}
			if r.Makespan < base.CriticalOps {
				t.Fatalf("%d slots: makespan %d below the critical path %d", slots, r.Makespan, base.CriticalOps)
			}
			var load uint64
			for _, l := range r.SlotLoad {
				load += l
			}
			if load != r.SerialOps {
				t.Fatalf("%d slots: loads sum to %d, serial %d", slots, load, r.SerialOps)
			}
		}
	})
}
