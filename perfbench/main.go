// Command perfbench is the repository's benchmark: closed-loop passes of
// three Sigil user pipelines, timed end to end, plus a traced run that
// splits a pass into per-layer costs. See README.md in this directory.
//
// Run it from the root of a checkout:
//
//	bash perfbench/run.sh --workload dedup-partition --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The lines before it describe the
// host and give every metric with its sample count and quartiles.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"sigil/internal/workloads"
)

func main() {
	var cfg config
	var secs int
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: dedup-partition, canneal-critpath or vips-reuse")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the interleaving order of passes and ladder rungs")
	flag.IntVar(&secs, "seconds", 30, "how long the run measures")
	flag.IntVar(&trace, "trace", 0, "0: untraced passes, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "Perfetto trace path for a traced run (default .bench_build/perfbench/<workload>-seed<n>.trace.json)")
	flag.Parse()

	if secs < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg.window = time.Duration(secs) * time.Second
	cfg.traced = trace == 1
	if cfg.traced && cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(".bench_build", "perfbench", fmt.Sprintf("%s-seed%d.trace.json", cfg.workload, cfg.seed))
	}

	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printReport(os.Stdout, cfg, describeHost("."), out)
	line, err := out.resultLine()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	window   time.Duration    // how long the run measures
	traced   bool             // per-layer traced run instead of end-to-end
	class    *workloads.Class // input class override (tests); nil keeps the workload's
	traceOut string           // Perfetto trace path of a traced run ("" writes none)
	// want overrides the workload's recorded reference outputs (tests).
	want *expected
}

// outcome is a finished run: pass accounting and the metrics it measured.
type outcome struct {
	attempted int
	failed    int
	failures  []string // the first few check failures, for the log
	metrics   []metric
	notes     []string // extra report lines (self-time breakdown)
}

func (o *outcome) fail(msg string) {
	o.failed++
	if len(o.failures) < 5 {
		o.failures = append(o.failures, msg)
	}
}

// add reports the median of samples.
func (o *outcome) add(name, unit string, samples []float64) {
	o.metrics = append(o.metrics, metric{name: name, unit: unit, value: median(samples), samples: samples})
}

// anchored is one timing and the native runs around it: the mean of
// native[lo] and native[hi] is the host's speed when it was taken.
type anchored struct {
	x      float64
	lo, hi int
}

// perNative divides each timing by the mean of the native runs beside it.
// Other tenants of the host slow the interpreter by up to 2x in phases
// lasting from seconds to minutes (memory contention: a compute-only loop
// stays flat through them), while the median of a timing's ratio to the
// native run of the same program beside it repeats within a few percent
// from run to run. See README.md.
func perNative(xs []anchored, native []float64) []float64 {
	out := make([]float64, len(xs))
	for i, s := range xs {
		out[i] = s.x / ((native[s.lo] + native[s.hi]) / 2)
	}
	return out
}

func (o *outcome) exact(name, unit string, v float64) {
	o.metrics = append(o.metrics, metric{name: name, unit: unit, value: v})
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the contract's result object.
func (o *outcome) resultLine() (string, error) {
	ms := make(map[string]jsonMetric, len(o.metrics))
	for _, m := range o.metrics {
		ms[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{o.failed == 0 && o.attempted > 0, o.attempted, o.failed, ms})
	return string(b), err
}

func printReport(w io.Writer, cfg config, h host, o *outcome) {
	mode := "end-to-end (untraced)"
	if cfg.traced {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%.0f mode=%s\n", cfg.workload, cfg.seed, cfg.window.Seconds(), mode)
	fmt.Fprintf(w, "host nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s sources=%s\n",
		h.nproc, h.gomaxprocs, h.cpu, h.goVersion, h.commit, h.sources)
	fmt.Fprintf(w, "passes attempted=%d failed=%d\n", o.attempted, o.failed)
	for _, f := range o.failures {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}
	ms := append([]metric(nil), o.metrics...)
	sort.SliceStable(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	fmt.Fprintf(w, "%-32s %14s %-6s %5s %14s %14s %14s %14s\n", "metric", "value", "unit", "n", "min", "q1", "median", "q3")
	for _, m := range ms {
		if m.samples == nil {
			fmt.Fprintf(w, "%-32s %14.6g %-6s %5s\n", m.name, m.value, m.unit, "exact")
			continue
		}
		q1, q2, q3 := quartiles(m.samples)
		fmt.Fprintf(w, "%-32s %14.6g %-6s %5d %14.6g %14.6g %14.6g %14.6g\n",
			m.name, m.value, m.unit, len(m.samples), minOf(m.samples), q1, q2, q3)
	}
	for _, n := range o.notes {
		fmt.Fprintln(w, n)
	}
}

// run executes one benchmark invocation.
func run(cfg config) (*outcome, error) {
	w, err := lookup(cfg.workload)
	if err != nil {
		return nil, err
	}
	class := w.class
	if cfg.class != nil {
		class = *cfg.class
	}
	want, ok := w.expect[class]
	if cfg.want != nil {
		want, ok = *cfg.want, true
	}
	if !ok {
		return nil, fmt.Errorf("%s has no reference outputs at %s", w.name, class)
	}
	b := &bench{cfg: cfg, w: w, class: class, want: want, out: &outcome{}}
	b.rng = newRand(cfg.seed)
	if cfg.traced {
		err = b.traced()
	} else {
		err = b.untraced()
	}
	if err != nil {
		return nil, err
	}
	return b.out, nil
}
