// Package experiments regenerates every table and figure of the paper's
// evaluation: the Sigil characterization (Figs 4–6), the HW/SW partitioning
// case study (Fig 7, Tables II/III), the data-reuse study (Figs 8–12) and
// the critical-path study (Fig 13). Each experiment returns typed rows plus
// a text rendering that prints the same series the paper reports.
package experiments

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"sigil/internal/callgrind"
	"sigil/internal/core"
	"sigil/internal/dbi"
	"sigil/internal/telemetry"
	"sigil/internal/trace"
	"sigil/internal/tracing"
	"sigil/internal/workloads"
)

// Mode selects what a cached profiling run collected.
type Mode int

// Profiling modes used by the experiments.
const (
	ModeBaseline Mode = iota // byte-granularity, no reuse tracking
	ModeReuse                // byte-granularity with reuse tracking
	ModeLine                 // line-granularity
)

type profileKey struct {
	name  string
	class workloads.Class
	mode  Mode
}

// Timing holds one workload's measured wall-clock costs (the Fig 4/5/6 raw
// data). Each duration is the median of repetitions.
type Timing struct {
	Name     string
	Class    workloads.Class
	Native   time.Duration
	Callgrnd time.Duration
	Sigil    time.Duration

	NativePages  int    // program footprint, pages
	ShadowPeak   uint64 // sigil shadow bytes at peak (baseline mode)
	ProgramBytes uint64 // program memory footprint in bytes
}

// SigilVsNative returns the Fig 4 slowdown.
func (t Timing) SigilVsNative() float64 { return ratio(t.Sigil, t.Native) }

// CallgrindVsNative returns Fig 4's comparison series.
func (t Timing) CallgrindVsNative() float64 { return ratio(t.Callgrnd, t.Native) }

// SigilVsCallgrind returns the Fig 5 slowdown.
func (t Timing) SigilVsCallgrind() float64 { return ratio(t.Sigil, t.Callgrnd) }

func ratio(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Suite caches profiling runs so every figure can share them; it is safe
// for concurrent use. Concurrent requests for the same profile are
// deduplicated: the first caller runs it, later callers wait for the cached
// result — so the parallel prewarm pool and figure code never repeat a run.
type Suite struct {
	mu       sync.Mutex
	profiles map[profileKey]*core.Result
	traces   map[string]*eventRun  // events, simsmall, keyed by workload
	timings  map[profileKey]Timing // mode field unused (always baseline)
	flights  map[any]*flight       // in-progress computations, by cache key

	// TimingReps is the number of timing repetitions (default 3). In each
	// the three configurations take turns for timingWindow of run time;
	// each reports the median of all its runs.
	TimingReps int
	// DedupShadowLimit is the FIFO chunk limit applied to dedup, the one
	// workload the paper needed the memory limit for (0 disables). The
	// default of 16 chunks genuinely evicts at simsmall (~22 chunks
	// unlimited), reproducing the paper's dedup slowdown outlier and its
	// bounded memory bar.
	DedupShadowLimit int

	// Workers bounds the worker pool Prewarm uses to generate the profile
	// and trace matrix (0 means GOMAXPROCS). With more than one worker the
	// suite's runs no longer attach the shared Telemetry metrics — see
	// coreOptions.
	Workers int

	// Ctx, when non-nil, cancels the suite's profiling runs cooperatively
	// (cmd/experiments wires it to SIGINT/SIGTERM).
	Ctx context.Context

	// Telemetry, when non-nil, receives live counters from every profiling
	// run the suite performs, so a long suite invocation is observable via
	// heartbeats and the HTTP endpoint like any single-run tool.
	Telemetry *telemetry.Metrics

	// Tracer, when non-nil, records every profiling run as a span tree.
	// Each run gets its own track (a fresh per-goroutine buffer named
	// workload/mode), so the trees stay well-formed at any worker count —
	// unlike the shared Telemetry gauges, tracing needs no -p=1 fallback.
	Tracer *tracing.Recorder
}

func (s *Suite) ctx() context.Context {
	if s.Ctx != nil {
		return s.Ctx
	}
	return context.Background()
}

// workers returns the effective worker-pool size.
func (s *Suite) workers() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// flight is one in-progress cache fill; waiters block on done and read err
// afterwards (the close happens-after the err store).
type flight struct {
	done chan struct{}
	err  error
}

// shared deduplicates concurrent computations of one cache key. lookup and
// store run under s.mu; compute runs unlocked. The first caller for a key
// computes and stores, concurrent callers wait and then re-read the cache.
func (s *Suite) shared(key any, lookup func() (any, bool), compute func() (any, error), store func(any)) (any, error) {
	for {
		s.mu.Lock()
		if v, ok := lookup(); ok {
			s.mu.Unlock()
			return v, nil
		}
		if f, ok := s.flights[key]; ok {
			s.mu.Unlock()
			<-f.done
			if f.err != nil {
				return nil, f.err
			}
			continue // the flight stored its result; re-read the cache
		}
		if s.flights == nil {
			s.flights = make(map[any]*flight)
		}
		f := &flight{done: make(chan struct{})}
		s.flights[key] = f
		s.mu.Unlock()

		v, err := compute()
		s.mu.Lock()
		if err == nil {
			store(v)
		}
		delete(s.flights, key)
		s.mu.Unlock()
		f.err = err
		close(f.done)
		return v, err
	}
}

// modeNames label suite tracks and test output.
var modeNames = [...]string{ModeBaseline: "baseline", ModeReuse: "reuse", ModeLine: "line"}

// String returns the mode's mnemonic.
func (m Mode) String() string {
	if int(m) < len(modeNames) {
		return modeNames[m]
	}
	return fmt.Sprintf("mode%d", int(m))
}

// traceBuf allocates the dedicated span track for one profiling run, or
// nil when the suite is not tracing. The buffer is used only by the
// goroutine executing that run, honoring the single-owner Buf contract.
func (s *Suite) traceBuf(label string) *tracing.Buf {
	if s.Tracer == nil {
		return nil
	}
	return s.Tracer.Local(label)
}

// NewSuite returns an empty suite.
func NewSuite() *Suite {
	return &Suite{
		profiles:         make(map[profileKey]*core.Result),
		traces:           make(map[string]*eventRun),
		timings:          make(map[profileKey]Timing),
		TimingReps:       3,
		DedupShadowLimit: 16,
	}
}

func (s *Suite) coreOptions(name string, mode Mode) core.Options {
	var opts core.Options
	switch mode {
	case ModeReuse:
		opts.TrackReuse = true
	case ModeLine:
		opts.LineGranularity = true
	}
	if name == "dedup" && s.DedupShadowLimit > 0 {
		opts.MaxShadowChunks = s.DedupShadowLimit
	}
	// The shared live Metrics are a single-writer surface: every run calls
	// BeginRun (a reset) and samples its own counters into the same gauges,
	// so concurrent runs would interleave garbage. Attach them only when
	// the suite runs one profile at a time; parallel runs fall back to the
	// private per-run Metrics core always snapshots into Result.Telemetry,
	// which keeps the per-run telemetry table exact either way.
	if s.workers() == 1 {
		opts.Telemetry = s.Telemetry
	}
	return opts
}

// Profile returns the cached Sigil profile for (workload, class, mode),
// running it on first use.
func (s *Suite) Profile(name string, class workloads.Class, mode Mode) (*core.Result, error) {
	key := profileKey{name, class, mode}
	v, err := s.shared(key,
		func() (any, bool) { r, ok := s.profiles[key]; return r, ok },
		func() (any, error) {
			prog, input, err := workloads.Build(name, class)
			if err != nil {
				return nil, fmt.Errorf("experiments: building %s/%s: %w", name, class, err)
			}
			opts := s.coreOptions(name, mode)
			opts.Trace = s.traceBuf(fmt.Sprintf("%s/%s", name, mode))
			r, err := core.RunContext(s.ctx(), prog, opts, input)
			if err != nil {
				return nil, fmt.Errorf("experiments: profiling %s/%s: %w", name, class, err)
			}
			return r, nil
		},
		func(v any) { s.profiles[key] = v.(*core.Result) },
	)
	if err != nil {
		return nil, err
	}
	return v.(*core.Result), nil
}

// traceKey distinguishes trace flights from profile flights in the shared
// in-progress map.
type traceKey string

// eventRun is one cached simsmall run with events: the event file it wrote
// into memory, decoded, and that file's footprint.
type eventRun struct {
	tr    *trace.Trace
	bytes int               // length of the event file
	stats trace.WriterStats // the writer's event and frame counts
}

// Trace returns the cached event trace of a simsmall run.
func (s *Suite) Trace(name string) (*trace.Trace, error) {
	r, err := s.eventRun(name)
	if err != nil {
		return nil, err
	}
	return r.tr, nil
}

// eventRun runs a workload at simsmall with an event file written into
// memory, as sigil -events writes it, and decodes the file, on first use.
func (s *Suite) eventRun(name string) (*eventRun, error) {
	v, err := s.shared(traceKey(name),
		func() (any, bool) { r, ok := s.traces[name]; return r, ok },
		func() (any, error) {
			prog, input, err := workloads.Build(name, workloads.SimSmall)
			if err != nil {
				return nil, fmt.Errorf("experiments: building %s: %w", name, err)
			}
			var file bytes.Buffer
			w := trace.NewWriter(&file)
			opts := s.coreOptions(name, ModeBaseline)
			opts.Events = w
			opts.Trace = s.traceBuf(name + "/events")
			_, err = core.RunContext(s.ctx(), prog, opts, input)
			if err = cmp.Or(err, w.Close()); err != nil {
				return nil, fmt.Errorf("experiments: tracing %s: %w", name, err)
			}
			tr, err := trace.ReadAll(bytes.NewReader(file.Bytes()))
			if err != nil {
				return nil, fmt.Errorf("experiments: decoding %s events: %w", name, err)
			}
			return &eventRun{tr: tr, bytes: file.Len(), stats: w.Stats()}, nil
		},
		func(v any) { s.traces[name] = v.(*eventRun) },
	)
	if err != nil {
		return nil, err
	}
	return v.(*eventRun), nil
}

// timingKey distinguishes timing flights from profile flights (both use
// profileKey as the cache key).
type timingKey profileKey

// Timing measures (or returns cached) native / Callgrind / Sigil wall-clock
// costs for one workload and class. Timings are never prewarmed in
// parallel: wall-clock measurements demand an otherwise-idle process, so
// figure code requests them sequentially.
func (s *Suite) Timing(name string, class workloads.Class) (Timing, error) {
	key := profileKey{name, class, ModeBaseline}
	v, err := s.shared(timingKey(key),
		func() (any, bool) { t, ok := s.timings[key]; return t, ok },
		func() (any, error) { return s.measureTiming(name, class) },
		func(v any) { s.timings[key] = v.(Timing) },
	)
	if err != nil {
		return Timing{}, err
	}
	return v.(Timing), nil
}

// timingWindow is the run time one timing repetition spends re-running the
// native, Callgrind and Sigil configurations in turn. Registry programs at
// simsmall run natively in about 1–60 ms, and on a shared host single runs
// of that length can take twice as long as their neighbours; taking turns
// and reporting each configuration's median run keeps such a run, or a
// change in host speed, from landing on one configuration only.
const timingWindow = 150 * time.Millisecond

func (s *Suite) measureTiming(name string, class workloads.Class) (Timing, error) {
	reps := s.TimingReps
	if reps <= 0 {
		reps = 3
	}

	prog, input, err := workloads.Build(name, class)
	if err != nil {
		return Timing{}, fmt.Errorf("experiments: building %s/%s: %w", name, class, err)
	}
	t := Timing{Name: name, Class: class}
	configs := []struct {
		out *time.Duration
		run func() (time.Duration, error)
	}{
		{&t.Native, func() (time.Duration, error) {
			res, err := dbi.RunContext(s.ctx(), prog, nil, input, nil)
			t.NativePages = res.Stats.MemPages
			t.ProgramBytes = uint64(res.Stats.MemPages) * 64 * 1024
			return res.Duration, err
		}},
		{&t.Callgrnd, func() (time.Duration, error) {
			sub, err := callgrind.New(callgrind.Options{})
			if err != nil {
				return 0, err
			}
			res, err := dbi.RunContext(s.ctx(), prog, sub, input, nil)
			return res.Duration, err
		}},
		{&t.Sigil, func() (time.Duration, error) {
			r, err := core.RunContext(s.ctx(), prog, s.coreOptions(name, ModeBaseline), input)
			if err != nil {
				return 0, err
			}
			t.ShadowPeak = r.Shadow.PeakBytes
			return r.Wall, nil
		}},
	}

	samples := make([][]time.Duration, len(configs))
	for i := 0; i < reps; i++ {
		for total := time.Duration(0); total < timingWindow; {
			for k, c := range configs {
				// Start each run with no collection debt, so a GC cycle
				// the previous run's allocations started does not run
				// beside this one.
				runtime.GC()
				d, err := c.run()
				if err != nil {
					return Timing{}, err
				}
				samples[k] = append(samples[k], d)
				total += d
			}
		}
	}
	for k, c := range configs {
		slices.Sort(samples[k])
		*c.out = samples[k][len(samples[k])/2]
	}
	return t, nil
}
