package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"sigil/internal/core"
	"sigil/internal/dbi"
	"sigil/internal/trace"
	"sigil/internal/tracing"
	"sigil/internal/vm"
	"sigil/internal/workloads"
)

const (
	// setupReps is how many times a run builds its workload.
	setupReps = 40
	// minPasses bounds a run from below when one pass outlasts the window.
	minPasses = 3
	// refNsPerInstr is the native VM's speed on the host the benchmark was
	// written on (Intel Xeon, 2 CPUs, Go 1.24: dedup at simmedium, 26.1M
	// instructions, ran natively in 0.105 s in a quiet phase). setup_s is
	// a build's ratio to the native run beside it at this speed.
	refNsPerInstr = 4.0
)

// bench is the state of one run.
type bench struct {
	cfg   config
	w     *workload
	class workloads.Class
	want  expected
	out   *outcome
	rng   *rand.Rand

	prog  *vm.Program
	input []byte
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// build times one workloads.Build, verification included. Passes all use
// the first program built, so its lazily built index is warm after the
// warm-up pass.
func (b *bench) build(buf *tracing.Buf) (time.Duration, error) {
	s := buf.Start("workloads.Build", tracing.A("program", b.w.program), tracing.A("class", b.class.String()))
	start := time.Now()
	p, in, err := workloads.Build(b.w.program, b.class)
	d := time.Since(start)
	s.End()
	if err != nil {
		return d, fmt.Errorf("building %s at %s: %w", b.w.program, b.class, err)
	}
	if b.prog == nil {
		b.prog, b.input = p, in
	}
	return d, nil
}

// passStats is what a correct pass contributes to the metrics.
type passStats struct {
	times passTimes
	gc    gcSample // allocation and GC cycles during the pass
}

// pass runs and checks one pass; ok is false when the pass failed, which
// the outcome has already counted. Like a pass in a fresh process, it
// starts after a collection, so its collections do not depend on where the
// previous pass left the heap.
func (b *bench) pass(buf *tracing.Buf) (a *artifacts, ps passStats, ok bool) {
	runtime.GC()
	g0 := readGC()
	a, pt, err := b.w.runPass(buf, b.prog, b.input)
	g1 := readGC()
	b.out.attempted++
	if err != nil {
		b.out.fail(err.Error())
		return nil, ps, false
	}
	if bad := b.w.check(a, b.want); len(bad) > 0 {
		b.out.fail(strings.Join(bad, "; "))
		return nil, ps, false
	}
	ps.times = pt
	ps.gc = gcSample{allocBytes: g1.allocBytes - g0.allocBytes, cycles: g1.cycles - g0.cycles}
	return a, ps, true
}

// untraced measures the end-to-end metrics: passes back to back for the
// window, each right after a native run of the same program, with the
// set-up repetitions interleaved at seed-drawn points, each right before a
// native run. Every timing is reported per the native runs beside it (see
// perNative).
func (b *bench) untraced() error {
	if _, err := b.build(nil); err != nil {
		return err
	}
	// The warm-up pass pays the once-per-process costs (the program's
	// dispatch index, heap growth, pools) before timing starts.
	b.pass(nil)

	var (
		native               []float64 // seconds per native run, in order
		instrs               uint64    // retired instructions of one native run
		setup, pass, profile []anchored
		allocB               []float64
		artifact             float64 // bytes written by the last correct pass
	)
	nativeRun := func() error {
		start := time.Now()
		rr, err := dbi.Run(b.prog, nil, b.input)
		native = append(native, seconds(time.Since(start)))
		if err != nil {
			return fmt.Errorf("native run: %w", err)
		}
		instrs = rr.Stats.Instrs
		return nil
	}
	setupRun := func() error {
		runtime.GC() // as for a pass: a build in a fresh process starts from a small heap
		d, err := b.build(nil)
		if err != nil {
			return err
		}
		next := len(native)
		setup = append(setup, anchored{x: seconds(d), lo: next, hi: next})
		return nativeRun()
	}
	pending := setupReps
	deadline := time.Now().Add(b.cfg.window)
	for n := 0; n < minPasses || time.Now().Before(deadline); n++ {
		if pending > 0 && b.rng.Intn(2) == 0 {
			if err := setupRun(); err != nil {
				return err
			}
			pending--
		} else if err := nativeRun(); err != nil {
			return err
		}
		a, ps, ok := b.pass(nil)
		if !ok {
			continue
		}
		artifact = float64(len(a.profile) + len(a.events))
		before := len(native) - 1
		pass = append(pass, anchored{x: seconds(ps.times.pass), lo: before, hi: before + 1})
		profile = append(profile, anchored{x: seconds(ps.times.profile), lo: before, hi: before + 1})
		allocB = append(allocB, float64(ps.gc.allocBytes))
	}
	if err := nativeRun(); err != nil {
		return err
	}
	for ; pending > 0; pending-- {
		if err := setupRun(); err != nil {
			return err
		}
	}

	o := b.out
	setupS := perNative(setup, native)
	for i := range setupS {
		setupS[i] *= float64(instrs) * refNsPerInstr * 1e-9
	}
	o.add("setup_s", "s", setupS)
	o.add("pass_x_native", "x", perNative(pass, native))
	o.add("profile_x_native", "x", perNative(profile, native))
	o.add("alloc_bytes", "bytes", allocB)
	o.exact("artifact_bytes", "bytes", artifact)
	q := quantiles(native, 10)
	o.notes = append(o.notes, fmt.Sprintf("native runs: %d, %d instructions, median %.6g s, p10 %.6g s, p90 %.6g s",
		len(native), instrs, median(native), q[0], q[8]))
	return nil
}

// traced measures the per-layer metrics: ladder rounds, traced passes and
// untraced passes, interleaved in seed-drawn order until the window ends.
func (b *bench) traced() error {
	rec := tracing.NewRecorder()
	buf := rec.Local("perfbench " + b.w.name)
	for i := 0; i < setupReps; i++ {
		if _, err := b.build(buf); err != nil {
			return err
		}
	}
	s := buf.Start("vm.count")
	cnt, err := countPrimitives(b.prog, b.input)
	s.End()
	if err != nil {
		return err
	}
	var lastBack *core.Result // the last correct pass's profile as read back
	if a, _, ok := b.pass(nil); ok {
		lastBack = a.back
	}
	reuseBack, err := b.reuseProbeProfile(buf)
	if err != nil {
		return err
	}

	var (
		rounds               []*round
		untraced, nsPerInstr []float64 // untraced passes: whole pass, profiling call per instruction
		overhead             []float64 // traced pass / untraced pass of the same cycle
		gcCycles             []float64
	)
	deadline := time.Now().Add(b.cfg.window)
	for n := 0; n < 1 || time.Now().Before(deadline); n++ {
		var tracedS, untracedS float64
		for _, step := range b.rng.Perm(3) {
			switch step {
			case 0:
				r, err := runRound(buf, b.rng, b.w, b.prog, b.input)
				if err != nil {
					return err
				}
				if err := b.probe(buf, r, lastBack, reuseBack); err != nil {
					return err
				}
				r.eventFile = nil
				rounds = append(rounds, r)
			case 1, 2:
				pb := buf
				if step == 2 {
					pb = nil
				}
				a, ps, ok := b.pass(pb)
				if !ok {
					continue
				}
				lastBack = a.back
				gcCycles = append(gcCycles, float64(ps.gc.cycles))
				if pb != nil {
					tracedS = seconds(ps.times.pass)
				} else {
					untracedS = seconds(ps.times.pass)
					untraced = append(untraced, untracedS)
					nsPerInstr = append(nsPerInstr, float64(ps.times.profile.Nanoseconds())/float64(a.result.Profile.TotalInstrs))
				}
			}
		}
		if tracedS > 0 && untracedS > 0 {
			overhead = append(overhead, tracedS/untracedS)
		}
	}

	if err := b.layerMetrics(rec, rounds, cnt); err != nil {
		return err
	}
	o := b.out
	o.add("pass_s", "s", untraced)
	o.add("profile_ns_per_instr", "ns", nsPerInstr)
	o.add("go.gc_cycles", "count", gcCycles)
	o.exact("go.max_rss_bytes", "bytes", maxRSSBytes())
	o.add("tracing.overhead_x", "x", overhead)
	o.notes = append(o.notes, selfTimes(rec.Spans(), "pass")...)
	if b.cfg.traceOut != "" {
		if err := writeTrace(b.cfg.traceOut, rec); err != nil {
			return err
		}
		o.notes = append(o.notes, "perfetto trace: "+b.cfg.traceOut)
	}
	return nil
}

// reuseProbeProfile profiles the program once in re-use mode, for
// workloads whose own pipeline has no re-use stage, so reuse.analyze_s is
// measured on every workload. It returns the profile as read back.
func (b *bench) reuseProbeProfile(buf *tracing.Buf) (*core.Result, error) {
	if b.w.reuse {
		return nil, nil
	}
	s := buf.Start("probe:reuse-profile")
	defer s.End()
	res, err := core.Run(b.prog, core.Options{TrackReuse: true}, b.input)
	if err != nil {
		return nil, fmt.Errorf("re-use probe profile: %w", err)
	}
	var pb bytes.Buffer
	if err := core.WriteProfile(&pb, res); err != nil {
		return nil, err
	}
	return core.ReadProfile(&pb)
}

// probe times, after a ladder round, the post-processing layers that the
// workload's own pipeline does not run, on this workload's data: decode
// and critical path on the Sigil+events rung's file, partitioning on the
// last pass's profile, re-use analysis on the re-use probe profile.
func (b *bench) probe(buf *tracing.Buf, r *round, lastBack, reuseBack *core.Result) error {
	s := buf.Start("probes")
	defer s.End()
	if !b.w.events {
		tr, err := decode(buf, r.eventFile)
		if err != nil {
			return err
		}
		if _, err := answerCritpath(buf, &artifacts{decoded: tr}); err != nil {
			return err
		}
	}
	if b.w.events || b.w.reuse {
		if lastBack == nil {
			return fmt.Errorf("no correct pass to partition")
		}
		if _, err := answerPartition(buf, &artifacts{back: lastBack}); err != nil {
			return err
		}
	}
	if !b.w.reuse {
		if _, err := answerReuse(buf, &artifacts{back: reuseBack}); err != nil {
			return err
		}
	}
	return nil
}

// decode reads a v3 event file back with one worker per CPU, as
// sigil-critpath does by default.
func decode(buf *tracing.Buf, file []byte) (*trace.Trace, error) {
	s := buf.Start("trace.ReadAllWorkers")
	defer s.End()
	tr, err := trace.ReadAllWorkers(bytes.NewReader(file), runtime.NumCPU())
	if err != nil {
		return nil, fmt.Errorf("decoding event file: %w", err)
	}
	return tr, nil
}

// layerMetrics derives the per-layer metrics from the ladder rounds, the
// exact counts and the recorded spans.
func (b *bench) layerMetrics(rec *tracing.Recorder, rounds []*round, cnt counts) error {
	o := b.out
	// x collects one value per round: a rung's multiple of native, or the
	// difference of two rungs' multiples (the increment of one layer).
	x := func(a, minus string) []float64 {
		var xs []float64
		for _, r := range rounds {
			v := r.x[a]
			if minus != "" {
				v -= r.x[minus]
			}
			xs = append(xs, v)
		}
		return xs
	}
	var nativeNs []float64
	for _, r := range rounds {
		for _, d := range r.native {
			nativeNs = append(nativeNs, float64(d.Nanoseconds())/float64(cnt.instrs))
		}
	}
	o.add("vm.native_ns_per_instr", "ns", nativeNs)
	o.add("vm.slowdown_x", "x", x(rungSigil, ""))
	o.exact("vm.instrs", "count", float64(cnt.instrs))
	o.exact("vm.mem_accesses", "count", float64(cnt.accesses))
	o.exact("vm.branches", "count", float64(cnt.branches))
	o.exact("vm.calls", "count", float64(cnt.calls))
	o.add("dbi.dispatch_x", "x", x(rungNoop, ""))
	o.add("cachesim.x_native", "x", x(rungCachesim, rungNoop))
	o.add("branchsim.x_native", "x", x(rungBranch, rungNoop))
	o.add("callgrind.x_native", "x", x(rungCallgrnd, ""))
	o.add("core.x_native", "x", x(rungSigil, rungCallgrnd))
	o.add("trace.emit_x_native", "x", x(rungEvents, rungSigil))

	r := rounds[len(rounds)-1]
	o.exact("cachesim.l1_miss_ratio", "ratio", float64(r.l1Misses)/float64(r.l1Accesses))
	o.exact("branchsim.mispredict_ratio", "ratio", float64(r.mispredicts)/float64(r.branches))
	tel := map[string]float64{}
	for _, k := range []string{"shadow_cache_hits", "shadow_cache_misses", "classify_granules", "classify_runs", "shadow_bytes_peak"} {
		v, err := key(r.sigilTel, k)
		if err != nil {
			return err
		}
		tel[k] = v
	}
	o.exact("core.shadow_cache_hit_ratio", "ratio", tel["shadow_cache_hits"]/(tel["shadow_cache_hits"]+tel["shadow_cache_misses"]))
	o.exact("core.granules_per_run", "count", tel["classify_granules"]/tel["classify_runs"])
	o.exact("core.shadow_bytes_peak", "bytes", tel["shadow_bytes_peak"])
	var stalls []float64
	for _, r := range rounds {
		v, err := key(r.eventsTel, "event_emit_stalls")
		if err != nil {
			return err
		}
		stalls = append(stalls, v)
	}
	o.add("trace.emit_stalls", "count", stalls)
	events := float64(r.eventsEmitted)
	o.exact("trace.events", "count", events)
	o.exact("trace.bytes_per_event", "bytes", float64(r.eventBytes)/events)

	spans := spanSeconds(rec.Spans())
	perEvent := func(xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * 1e9 / events
		}
		return out
	}
	o.add("trace.decode_ns_per_event", "ns", perEvent(spans["trace.ReadAllWorkers"]))
	o.add("critpath.analyze_ns_per_event", "ns", perEvent(spans["critpath.Analyze"]))
	o.add("cdfg.partition_s", "s", spans["cdfg"])
	o.add("reuse.analyze_s", "s", spans["reuse"])
	writes, reads := spans["core.WriteProfile"], spans["core.ReadProfile"]
	var profio []float64
	for i := range writes {
		if i < len(reads) {
			profio = append(profio, writes[i]+reads[i])
		}
	}
	o.add("core.profio_s", "s", profio)
	return nil
}

// spanSeconds groups span wall times by name, in recording order.
func spanSeconds(spans []tracing.Span) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], time.Duration(s.WallNanos).Seconds())
	}
	return out
}

// selfTimes breaks the spans named root down into self time per span name:
// a span's self time is its wall time minus its children's, so the shares
// add up to the roots' total wall time.
func selfTimes(spans []tracing.Span, root string) []string {
	children := map[uint64][]tracing.Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]int64{}
	var total int64
	var walk func(s tracing.Span)
	walk = func(s tracing.Span) {
		own := s.WallNanos
		for _, c := range children[s.ID] {
			own -= c.WallNanos
			walk(c)
		}
		self[s.Name] += own
	}
	roots := 0
	for _, s := range spans {
		if s.Name == root {
			roots++
			total += s.WallNanos
			walk(s)
		}
	}
	if roots == 0 || total == 0 {
		return nil
	}
	names := make([]string, 0, len(self))
	var sum int64
	for n, v := range self {
		names = append(names, n)
		sum += v
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	lines := []string{fmt.Sprintf("self time of %d traced passes (%.3f s; self times sum to %.3f s):",
		roots, time.Duration(total).Seconds(), time.Duration(sum).Seconds())}
	for _, n := range names {
		lines = append(lines, fmt.Sprintf("  %-24s %10.4f s %6.2f%%", n, time.Duration(self[n]).Seconds(), 100*float64(self[n])/float64(total)))
	}
	return lines
}

// writeTrace exports the run's spans as Chrome trace_event JSON, which
// Perfetto loads.
func writeTrace(path string, rec *tracing.Recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var out bytes.Buffer
	if err := tracing.WriteChrome(&out, rec, nil); err != nil {
		return err
	}
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
