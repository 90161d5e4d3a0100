package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"sigil/internal/branchsim"
	"sigil/internal/cachesim"
	"sigil/internal/callgrind"
	"sigil/internal/core"
	"sigil/internal/dbi"
	"sigil/internal/telemetry"
	"sigil/internal/trace"
	"sigil/internal/tracing"
	"sigil/internal/vm"
)

// The ladder measures the in-loop layers, which are too fine-grained for
// spans: each rung runs the whole program under one more layer, and a rung
// is reported as a multiple of the native runs on either side of it. A
// round runs every rung once, with a native run before each and one after
// the last, so a host-speed phase moves a rung and its native runs together
// and cancels in the ratio.
//
// Only entry points that stay stable across the planned refactors are
// used: dbi.Run, vm.BaseObserver embedded in observers that override memory
// or branch callbacks only, callgrind.New and core.Run.

const (
	rungNative   = "native"
	rungNoop     = "noop"
	rungCachesim = "cachesim"
	rungBranch   = "branchsim"
	rungCallgrnd = "callgrind"
	rungSigil    = "sigil"
	rungEvents   = "sigil+events"
)

// rungs are the rungs above native, which every round interleaves with
// native runs.
var rungs = []string{rungNoop, rungCachesim, rungBranch, rungCallgrnd, rungSigil, rungEvents}

// noopObserver is the pure dispatch cost: every callback does nothing.
type noopObserver struct{ vm.BaseObserver }

// cacheObserver drives only the cache simulation.
type cacheObserver struct {
	vm.BaseObserver
	h *cachesim.Hierarchy
}

func (o *cacheObserver) MemRead(addr uint64, size uint8)  { o.h.Access(addr, size) }
func (o *cacheObserver) MemWrite(addr uint64, size uint8) { o.h.Access(addr, size) }

// branchObserver drives only the branch predictor.
type branchObserver struct {
	vm.BaseObserver
	p *branchsim.Predictor
}

func (o *branchObserver) Branch(site uint64, taken bool) { o.p.Record(site, taken) }

// countObserver counts the primitive stream exactly.
type countObserver struct {
	vm.BaseObserver
	reads, writes, branches, calls uint64
}

func (o *countObserver) MemRead(uint64, uint8)  { o.reads++ }
func (o *countObserver) MemWrite(uint64, uint8) { o.writes++ }
func (o *countObserver) Branch(uint64, bool)    { o.branches++ }
func (o *countObserver) FnEnter(int)            { o.calls++ }

// counts are the program's exact primitive counts.
type counts struct {
	instrs, accesses, branches, calls uint64
}

func countPrimitives(prog *vm.Program, input []byte) (counts, error) {
	o := &countObserver{}
	rr, err := dbi.Run(prog, o, input)
	if err != nil {
		return counts{}, fmt.Errorf("counting run: %w", err)
	}
	return counts{instrs: rr.Stats.Instrs, accesses: o.reads + o.writes, branches: o.branches, calls: o.calls}, nil
}

// round is one ladder round: each rung's multiple of native plus the exact
// by-products the rungs report.
type round struct {
	native        []time.Duration    // native runs, in order
	x             map[string]float64 // rung wall time / mean of the native runs beside it
	l1Accesses    uint64
	l1Misses      uint64
	branches      uint64
	mispredicts   uint64
	sigilTel      map[string]float64 // Result.Telemetry of the Sigil rung, by JSON key
	eventsTel     map[string]float64 // Result.Telemetry of the Sigil+events rung
	eventFile     []byte             // the Sigil+events rung's v3 output
	eventBytes    int
	eventsEmitted uint64
}

// runRound runs every rung once, in an order drawn from rng, with a native
// run before each rung and after the last, recording one span per run
// into b.
func runRound(b *tracing.Buf, rng *rand.Rand, w *workload, prog *vm.Program, input []byte) (*round, error) {
	r := &round{x: make(map[string]float64, len(rungs))}
	timed := func(name string) (time.Duration, error) {
		s := b.Start("rung:"+name, tracing.A("workload", w.name))
		defer s.End()
		d, err := r.run(name, w, prog, input)
		if err != nil {
			return 0, fmt.Errorf("ladder rung %s: %w", name, err)
		}
		return d, nil
	}
	d, err := timed(rungNative)
	if err != nil {
		return nil, err
	}
	r.native = append(r.native, d)
	for _, i := range rng.Perm(len(rungs)) {
		name := rungs[i]
		d, err := timed(name)
		if err != nil {
			return nil, err
		}
		n, err := timed(rungNative)
		if err != nil {
			return nil, err
		}
		r.native = append(r.native, n)
		before := r.native[len(r.native)-2]
		r.x[name] = float64(d) / (float64(before+n) / 2)
	}
	return r, nil
}

func (r *round) run(name string, w *workload, prog *vm.Program, input []byte) (time.Duration, error) {
	switch name {
	case rungNative:
		return timeRun(prog, nil, input)
	case rungNoop:
		return timeRun(prog, noopObserver{}, input)
	case rungCachesim:
		o := &cacheObserver{h: cachesim.DefaultHierarchy()}
		d, err := timeRun(prog, o, input)
		st := o.h.Stats()
		r.l1Accesses, r.l1Misses = st.Accesses, st.L1Misses
		return d, err
	case rungBranch:
		o := &branchObserver{p: branchsim.New(0)}
		d, err := timeRun(prog, o, input)
		r.branches, r.mispredicts = o.p.Branches(), o.p.Mispredicts()
		return d, err
	case rungCallgrnd:
		sub, err := callgrind.New(callgrind.Options{})
		if err != nil {
			return 0, err
		}
		return timeRun(prog, sub, input)
	case rungSigil:
		start := time.Now()
		res, err := core.Run(prog, w.options(), input)
		d := time.Since(start)
		if err != nil {
			return 0, err
		}
		r.sigilTel, err = telemetryByKey(res.Telemetry)
		return d, err
	case rungEvents:
		var buf bytes.Buffer
		ew := trace.NewWriter(&buf)
		opts := w.options()
		opts.Events = ew
		start := time.Now()
		res, err := core.Run(prog, opts, input)
		cerr := ew.Close()
		d := time.Since(start)
		if err == nil {
			err = cerr
		}
		if err != nil {
			return 0, err
		}
		r.eventFile, r.eventBytes, r.eventsEmitted = buf.Bytes(), buf.Len(), ew.Count()
		r.eventsTel, err = telemetryByKey(res.Telemetry)
		return d, err
	}
	return 0, fmt.Errorf("unknown rung %q", name)
}

func timeRun(prog *vm.Program, obs vm.Observer, input []byte) (time.Duration, error) {
	start := time.Now()
	_, err := dbi.Run(prog, obs, input)
	return time.Since(start), err
}

// telemetryByKey flattens a telemetry snapshot to its JSON keys, the names
// the snapshot's exposition keeps stable across refactors of the struct.
func telemetryByKey(s *telemetry.Snapshot) (map[string]float64, error) {
	if s == nil {
		return nil, fmt.Errorf("run returned no telemetry")
	}
	raw, err := json.Marshal(s)
	if err != nil {
		return nil, err
	}
	var m map[string]float64
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, err
	}
	return m, nil
}

// key reads a telemetry counter that must be present.
func key(m map[string]float64, k string) (float64, error) {
	v, ok := m[k]
	if !ok {
		return 0, fmt.Errorf("telemetry has no %q counter", k)
	}
	return v, nil
}
