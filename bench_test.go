package sigil

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`). Experiment results
// are computed once per process and cached in a shared suite, so each
// BenchmarkTable*/BenchmarkFigure* bench measures regeneration of its
// experiment's rows; the BenchmarkAblation* benches measure the
// design-choice ablations called out in DESIGN.md. The raw profiling costs
// behind Figs 4-6 are BenchmarkFigure4's and the perfbench ladder's.

import (
	"fmt"
	"sync"
	"testing"

	"sigil/internal/core"
	"sigil/internal/dbi"
	"sigil/internal/experiments"
	"sigil/internal/telemetry"
	"sigil/internal/trace"
	"sigil/internal/tracing"
	"sigil/internal/workloads"
)

var (
	suiteOnce  sync.Once
	benchSuite *experiments.Suite
	benchSink  string
)

func sharedSuite() *experiments.Suite {
	suiteOnce.Do(func() {
		benchSuite = experiments.NewSuite()
		benchSuite.TimingReps = 1 // benches re-run; one rep per call is enough
	})
	return benchSuite
}

func benchExperiment(b *testing.B, f func() (interface{ Render() string }, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := f()
		if err != nil {
			b.Fatal(err)
		}
		benchSink = r.Render()
	}
	if benchSink == "" {
		b.Fatal("empty rendering")
	}
}

// BenchmarkTableI regenerates Table I (shadow object contents).
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchSink = experiments.TableI().Render()
	}
}

// BenchmarkFigure4 regenerates Fig 4 (Sigil and Callgrind slowdown vs native).
func BenchmarkFigure4(b *testing.B) {
	s := sharedSuite()
	benchExperiment(b, func() (interface{ Render() string }, error) { return s.Figure4() })
}

// BenchmarkFigure5 regenerates Fig 5 (Sigil slowdown vs Callgrind, two input sizes).
func BenchmarkFigure5(b *testing.B) {
	s := sharedSuite()
	benchExperiment(b, func() (interface{ Render() string }, error) { return s.Figure5() })
}

// BenchmarkFigure6 regenerates Fig 6 (profiling memory usage).
func BenchmarkFigure6(b *testing.B) {
	s := sharedSuite()
	benchExperiment(b, func() (interface{ Render() string }, error) { return s.Figure6() })
}

// BenchmarkFigure7 regenerates Fig 7 (trimmed-calltree coverage).
func BenchmarkFigure7(b *testing.B) {
	s := sharedSuite()
	benchExperiment(b, func() (interface{ Render() string }, error) { return s.Figure7() })
}

// BenchmarkTableII regenerates Table II (best candidates by breakeven).
func BenchmarkTableII(b *testing.B) {
	s := sharedSuite()
	benchExperiment(b, func() (interface{ Render() string }, error) { return s.TableII(5) })
}

// BenchmarkTableIII regenerates Table III (worst candidates).
func BenchmarkTableIII(b *testing.B) {
	s := sharedSuite()
	benchExperiment(b, func() (interface{ Render() string }, error) { return s.TableIII(5) })
}

// BenchmarkFigure8 regenerates Fig 8 (re-use count breakdown).
func BenchmarkFigure8(b *testing.B) {
	s := sharedSuite()
	benchExperiment(b, func() (interface{ Render() string }, error) { return s.Figure8() })
}

// BenchmarkFigure9 regenerates Fig 9 (top vips functions' re-use lifetimes).
func BenchmarkFigure9(b *testing.B) {
	s := sharedSuite()
	benchExperiment(b, func() (interface{ Render() string }, error) { return s.Figure9(8) })
}

// BenchmarkFigure10 regenerates Fig 10 (conv_gen lifetime distribution).
func BenchmarkFigure10(b *testing.B) {
	s := sharedSuite()
	benchExperiment(b, func() (interface{ Render() string }, error) { return s.Figure10() })
}

// BenchmarkFigure11 regenerates Fig 11 (imb_XYZ2Lab lifetime distribution).
func BenchmarkFigure11(b *testing.B) {
	s := sharedSuite()
	benchExperiment(b, func() (interface{ Render() string }, error) { return s.Figure11() })
}

// BenchmarkFigure12 regenerates Fig 12 (line-granularity re-use breakdown).
func BenchmarkFigure12(b *testing.B) {
	s := sharedSuite()
	benchExperiment(b, func() (interface{ Render() string }, error) { return s.Figure12() })
}

// BenchmarkFigure13 regenerates Fig 13 (function-level parallelism bounds).
func BenchmarkFigure13(b *testing.B) {
	s := sharedSuite()
	benchExperiment(b, func() (interface{ Render() string }, error) { return s.Figure13() })
}

// --- ablations (design choices called out in DESIGN.md) ---

// benchRun times simsmall runs of the named workload under the tool mk
// builds afresh for each run.
func benchRun(b *testing.B, name string, mk func() dbi.Tool) {
	b.Helper()
	prog, input, err := workloads.Build(name, workloads.SimSmall)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dbi.Run(prog, mk(), input); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationReuseMode measures the cost of re-use tracking on top of
// baseline shadowing (the paper's "up to 2x memory" mode).
func BenchmarkAblationReuseMode(b *testing.B) {
	for _, track := range []bool{false, true} {
		b.Run(fmt.Sprintf("reuse=%v", track), func(b *testing.B) {
			benchRun(b, "vips", func() dbi.Tool {
				return mustCore(mustSub(), core.Options{TrackReuse: track})
			})
		})
	}
}

// BenchmarkAblationGranularity compares byte- vs line-granularity shadowing.
func BenchmarkAblationGranularity(b *testing.B) {
	for _, line := range []bool{false, true} {
		b.Run(fmt.Sprintf("line=%v", line), func(b *testing.B) {
			benchRun(b, "raytrace", func() dbi.Tool {
				return mustCore(mustSub(), core.Options{LineGranularity: line})
			})
		})
	}
}

// BenchmarkAblationShadowLimit measures the FIFO memory limit's overhead on
// dedup (the one workload the paper needed it for). dedup/simsmall touches
// ~22 chunks unlimited, so the non-zero limits below genuinely evict.
func BenchmarkAblationShadowLimit(b *testing.B) {
	for _, limit := range []int{0, 16, 8, 4} {
		b.Run(fmt.Sprintf("chunks=%d", limit), func(b *testing.B) {
			benchRun(b, "dedup", func() dbi.Tool {
				return mustCore(mustSub(), core.Options{MaxShadowChunks: limit})
			})
		})
	}
}

// BenchmarkAblationTelemetry measures the live-metrics sampler on top of
// profiling: the full core.Run path with and without a Metrics block on
// Options, so the per-poll sampleInto cost (and final-snapshot cost) is the
// only difference. The acceptance bar is ≤3% on fft.
func BenchmarkAblationTelemetry(b *testing.B) {
	for _, sampled := range []bool{false, true} {
		b.Run(fmt.Sprintf("telemetry=%v", sampled), func(b *testing.B) {
			prog, input, err := workloads.Build("fft", workloads.SimSmall)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opts := core.Options{}
				if sampled {
					opts.Telemetry = &telemetry.Metrics{}
				}
				if _, err := core.Run(prog, opts, input); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationTracing measures the run-tracing subsystem on top of
// profiling: the full core.Run path with and without a span buffer on
// Options, so the span bookkeeping and deltas, the per-poll sample, and the
// private metrics block a traced run attaches are the only difference. The acceptance bar is ≤3% on fft (scripts/bench.sh gates it).
func BenchmarkAblationTracing(b *testing.B) {
	for _, traced := range []bool{false, true} {
		b.Run(fmt.Sprintf("tracing=%v", traced), func(b *testing.B) {
			prog, input, err := workloads.Build("fft", workloads.SimSmall)
			if err != nil {
				b.Fatal(err)
			}
			rec := tracing.NewRecorder()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opts := core.Options{}
				if traced {
					// A fresh per-iteration buffer, like each run of a
					// tool gets; the recorder is shared, as in a process.
					opts.Trace = rec.Local("bench")
				}
				if _, err := core.Run(prog, opts, input); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationEvents measures event-file emission on top of profiling.
func BenchmarkAblationEvents(b *testing.B) {
	for _, events := range []bool{false, true} {
		b.Run(fmt.Sprintf("events=%v", events), func(b *testing.B) {
			benchRun(b, "streamcluster", func() dbi.Tool {
				opts := core.Options{}
				if events {
					opts.Events = &trace.Buffer{}
				}
				return mustCore(mustSub(), opts)
			})
		})
	}
}

// BenchmarkOffloadModel measures the extension offload study (application
// speedups under assumed accelerators, cmd/experiments -only offload).
func BenchmarkOffloadModel(b *testing.B) {
	s := sharedSuite()
	benchExperiment(b, func() (interface{ Render() string }, error) {
		return s.OffloadStudy(10)
	})
}

// BenchmarkScheduleCurve measures the extension chain-scheduling study.
func BenchmarkScheduleCurve(b *testing.B) {
	s := sharedSuite()
	benchExperiment(b, func() (interface{ Render() string }, error) {
		return s.ScheduleCurve([]int{2, 4, 8})
	})
}
