package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"sigil/internal/callgrind"
	"sigil/internal/dbi"
	"sigil/internal/telemetry"
	"sigil/internal/trace"
	"sigil/internal/tracing"
	"sigil/internal/vm"
	"sigil/internal/workloads"
)

// runAt profiles prog through runTool with GOMAXPROCS set to procs for the
// run (1 classifies inline, 2 on the worker), so the caller can look at the
// tool afterwards. setup, when non-nil, adjusts the tool before the run.
func runAt(t *testing.T, procs int, prog *vm.Program, input []byte, opts Options, setup func(*Tool)) (*Tool, *Result, error) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	sub, err := callgrind.New(opts.Substrate)
	if err != nil {
		t.Fatal(err)
	}
	tool := mustNew(sub, opts)
	if setup != nil {
		setup(tool)
	}
	res, err := runTool(context.Background(), tool, prog, opts, input)
	return tool, res, err
}

// classifyCounters are the final telemetry counters classification and the
// shadow table produce; both paths must agree on every one.
func classifyCounters(s *telemetry.Snapshot) []uint64 {
	return []uint64{
		s[telemetry.InputUniqueBytes], s[telemetry.InputNonUniqueBytes],
		s[telemetry.OutputUniqueBytes], s[telemetry.OutputNonUniqueBytes],
		s[telemetry.LocalUniqueBytes], s[telemetry.LocalNonUniqueBytes],
		s[telemetry.ShadowChunksAllocated], s[telemetry.ShadowChunksLive],
		s[telemetry.ShadowChunksEvicted], s[telemetry.ShadowChunksPeak],
		s[telemetry.ShadowBytesResident], s[telemetry.ShadowBytesPeak],
		s[telemetry.ShadowCacheHits], s[telemetry.ShadowCacheMisses],
		s[telemetry.ShadowChunksRecycled], s[telemetry.ClassifySpans],
		s[telemetry.ClassifyRuns], s[telemetry.ClassifyGranules], s[telemetry.Samples],
	}
}

// pollSamples are the poll-point samples of a traced run, times dropped:
// what each poll read. An inline run records them on the run's track, a
// worker on its own.
func pollSamples(rec *tracing.Recorder) []tracing.Sample {
	var out []tracing.Sample
	for _, tr := range rec.Tracks() {
		for _, s := range tr.Samples {
			s.TimeNanos = 0
			out = append(out, s)
		}
	}
	return out
}

// workerBatches returns the batches the classification worker of a traced
// run applied, from its classify.worker span, and whether the run had a
// worker at all.
func workerBatches(rec *tracing.Recorder) (uint64, bool) {
	for _, sp := range rec.Spans() {
		if sp.Name != "classify.worker" {
			continue
		}
		for _, a := range sp.Attrs {
			if a.Key == "batches" {
				n, _ := a.Value.(uint64)
				return n, true
			}
		}
		return 0, true
	}
	return 0, false
}

func profileBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := WriteProfile(&b, res); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestWorkerMatchesInline profiles every registry workload at GOMAXPROCS 1
// (inline classification) and 2 (the worker) and demands the same profile,
// byte for byte, the same shadow accounting, the same final counters and
// the same poll samples, in every mode, under FIFO eviction, for a run
// stopped mid-way and with live telemetry attached. Every run is traced, so
// each poll leaves a sample record in the worker's stream.
func TestWorkerMatchesInline(t *testing.T) {
	configs := []struct {
		name      string
		opts      Options
		telemetry bool
	}{
		{"byte", Options{}, false},
		{"reuse", Options{TrackReuse: true}, false},
		{"line", Options{LineGranularity: true}, false},
		{"evicting", Options{MaxShadowChunks: 8}, false},
		{"stopped", Options{MaxInstrs: 200_000}, false},
		{"telemetry", Options{}, true},
	}
	for _, name := range workloads.Names() {
		prog, input, err := workloads.Build(name, workloads.SimSmall)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range configs {
			t.Run(name+"/"+c.name, func(t *testing.T) {
				var (
					results [2]*Result
					errs    [2]error
					samples [2][]tracing.Sample
				)
				for i, procs := range []int{1, 2} {
					opts := c.opts
					rec := tracing.NewRecorder()
					opts.Trace = rec.Local("run")
					if c.telemetry {
						opts.Telemetry = &telemetry.Metrics{}
					}
					_, res, err := runAt(t, procs, prog, input, opts, nil)
					var berr *BudgetError
					if err != nil && !(opts.MaxInstrs > 0 && errors.As(err, &berr)) {
						t.Fatalf("GOMAXPROCS %d: %v", procs, err)
					}
					batches, worker := workerBatches(rec)
					if procs == 2 && batches == 0 {
						t.Errorf("GOMAXPROCS 2: the worker applied no batch")
					}
					if procs == 1 && worker {
						t.Errorf("GOMAXPROCS 1: a worker ran")
					}
					results[i], errs[i] = res, err
					samples[i] = pollSamples(rec)
				}
				inline, worker := results[0], results[1]
				if !bytes.Equal(profileBytes(t, inline), profileBytes(t, worker)) {
					t.Error("profiles differ")
					assertResultsIdentical(t, worker, inline)
				}
				if inline.Shadow != worker.Shadow {
					t.Errorf("shadow stats: inline %+v, worker %+v", inline.Shadow, worker.Shadow)
				}
				if a, b := classifyCounters(inline.Telemetry), classifyCounters(worker.Telemetry); !reflect.DeepEqual(a, b) {
					t.Errorf("final counters: inline %v, worker %v", a, b)
				}
				if !reflect.DeepEqual(errs[0], errs[1]) {
					t.Errorf("errors: inline %v, worker %v", errs[0], errs[1])
				}
				if len(samples[0]) == 0 {
					t.Error("no poll samples recorded")
				}
				if !reflect.DeepEqual(samples[0], samples[1]) {
					t.Errorf("poll samples differ:\ninline %+v\nworker %+v", samples[0], samples[1])
				}
			})
		}
	}
}

// conserved reports whether every byte the substrate saw read was
// classified: Σ TotalRead = Σ ReadBytes+SysIn.
func conserved(res *Result) (classified, counted uint64) {
	for _, n := range res.Profile.Nodes {
		counted += n.Self.ReadBytes + n.Self.SysIn
	}
	return res.TotalCommunicated().TotalRead(), counted
}

// waitGoroutines waits for the goroutine count to fall back to before.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > before && i < 200; i++ {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines: %d before, %d after", before, after)
	}
}

// panicAfter forwards every callback to the tool and panics on the
// interpreter goroutine at its n-th memory read, while the worker may still
// hold records.
type panicAfter struct {
	*Tool
	n int
}

func (p *panicAfter) MemRead(addr uint64, size uint8) {
	if p.n--; p.n == 0 {
		panic("interpreter exploded")
	}
	p.Tool.MemRead(addr, size)
}

// runAborting drives the tool through panicAfter and salvages the way
// runTool does: abort, then the partial Result with a *PanicError.
func runAborting(ctx context.Context, tool *Tool, prog *vm.Program, _ Options, input []byte) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			tool.abort()
			res, _ = tool.Result()
			err = &PanicError{Value: r}
		}
	}()
	if _, err := dbi.RunContext(ctx, prog, &panicAfter{Tool: tool, n: 10_000}, input, nil); err != nil {
		return nil, err
	}
	return tool.Result()
}

// TestWorkerJoinedOnEveryExit ends runs every way a run can end, inline and
// with the worker: both return the same error type and a partial Result
// that conserves bytes (except after a panic), a shadow-chunk budget fires
// at the same count, no goroutine outlives a run, and the run gives back
// every CPU it counted as busy.
func TestWorkerJoinedOnEveryExit(t *testing.T) {
	vips, vipsIn, err := workloads.Build("vips", workloads.SimSmall)
	if err != nil {
		t.Fatal(err)
	}
	dedup, dedupIn, err := workloads.Build("dedup", workloads.SimSmall)
	if err != nil {
		t.Fatal(err)
	}
	noErr := func(t *testing.T, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	cancelled := func(t *testing.T, err error) {
		t.Helper()
		var cerr *vm.CancelError
		if !errors.As(err, &cerr) || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want *vm.CancelError", err)
		}
	}
	cases := []struct {
		name    string
		prog    *vm.Program
		input   []byte
		opts    Options
		setup   func(*Tool)
		run     func(context.Context, *Tool, *vm.Program, Options, []byte) (*Result, error)
		timeout time.Duration
		check   func(t *testing.T, err error)
		panic   bool
	}{
		{name: "complete", prog: vips, input: vipsIn, check: noErr},
		{name: "instructions", prog: vips, input: vipsIn, opts: Options{MaxInstrs: 300_000}, check: wantBudget("instructions")},
		{name: "shadow-chunks", prog: dedup, input: dedupIn, opts: Options{MaxShadowChunksHard: 6}, check: wantBudget("shadow-chunks")},
		{name: "cancelled", prog: producerConsumerProg(1<<12, 1<<30), timeout: 30 * time.Millisecond, check: cancelled},
		{name: "interpreter-panic", prog: vips, input: vipsIn, run: runAborting,
			check: wantPanic("interpreter exploded"), panic: true},
		{name: "sampler-panic", prog: vips, input: vipsIn, opts: Options{Telemetry: &telemetry.Metrics{}},
			setup: func(tool *Tool) {
				tool.evStats = func() trace.WriterStats { panic("sampler exploded") }
			},
			check: wantPanic("sampler exploded"), panic: true},
		{name: "worker-panic", prog: vips, input: vipsIn, opts: Options{MaxShadowChunks: 1},
			setup: func(tool *Tool) {
				tool.shadow.onEvict = func(uint64, *shadowChunk) { panic("evict exploded") }
			},
			check: wantPanic("evict exploded"), panic: true},
	}
	for _, c := range cases {
		var used []uint64
		for _, procs := range []int{1, 2} {
			t.Run(c.name+"/"+map[int]string{1: "inline", 2: "worker"}[procs], func(t *testing.T) {
				before, busyBefore := runtime.NumGoroutine(), cpusBusy.Load()
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				timeout := c.timeout
				if timeout == 0 {
					timeout = time.Minute
				}
				ctx, cancel := context.WithTimeout(context.Background(), timeout)
				defer cancel()
				sub, err := callgrind.New(c.opts.Substrate)
				if err != nil {
					t.Fatal(err)
				}
				tool := mustNew(sub, c.opts)
				if c.setup != nil {
					c.setup(tool)
				}
				run := c.run
				if run == nil {
					run = runTool
				}
				res, err := run(ctx, tool, c.prog, c.opts, c.input)
				c.check(t, err)
				assertPartial(t, res)
				var berr *BudgetError
				if errors.As(err, &berr) {
					used = append(used, berr.Used)
				}
				var perr *PanicError
				if procs == 2 && c.name == "worker-panic" && errors.As(err, &perr) &&
					!strings.Contains(string(perr.Stack), "(*worker).run") {
					t.Errorf("panic stack is not the worker's:\n%s", perr.Stack)
				}
				if !c.panic {
					if got, want := conserved(res); got != want || want == 0 {
						t.Errorf("classified %d bytes, substrate counted %d", got, want)
					}
				}
				if tool.pipe != nil {
					t.Error("worker not joined")
				}
				if busy := cpusBusy.Load(); busy != busyBefore {
					t.Errorf("busy CPUs: %d before the run, %d after", busyBefore, busy)
				}
				waitGoroutines(t, before)
			})
		}
		if c.name == "shadow-chunks" && (len(used) != 2 || used[0] != used[1]) {
			t.Errorf("shadow-chunk budget fired at %v chunks (inline, worker)", used)
		}
	}
}

// TestWorkerOnlyOnFreeCPU: a run starts a worker only while the runs of the
// process leave a CPU free for it. At GOMAXPROCS 2, with another run's
// interpreter counted, a run classifies inline; once that run is gone, the
// next one gets a worker. The profile is the same either way.
func TestWorkerOnlyOnFreeCPU(t *testing.T) {
	prog, input, err := workloads.Build("vips", workloads.SimSmall)
	if err != nil {
		t.Fatal(err)
	}
	run := func() ([]byte, bool) {
		rec := tracing.NewRecorder()
		_, res, err := runAt(t, 2, prog, input, Options{Trace: rec.Local("run")}, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, worker := workerBatches(rec)
		return profileBytes(t, res), worker
	}
	busyBefore := cpusBusy.Load()
	cpusBusy.Add(1) // another run's interpreter
	crowded, worker := run()
	cpusBusy.Add(-1)
	if worker {
		t.Error("a worker started with no CPU free")
	}
	free, worker := run()
	if !worker {
		t.Error("no worker started with a CPU free")
	}
	if !bytes.Equal(crowded, free) {
		t.Error("profiles differ")
	}
	if busy := cpusBusy.Load(); busy != busyBefore {
		t.Errorf("busy CPUs: %d before, %d after", busyBefore, busy)
	}
}

func wantBudget(resource string) func(t *testing.T, err error) {
	return func(t *testing.T, err error) {
		t.Helper()
		var berr *BudgetError
		if !errors.As(err, &berr) || berr.Resource != resource {
			t.Fatalf("err = %v, want a %s *BudgetError", err, resource)
		}
	}
}

func wantPanic(value string) func(t *testing.T, err error) {
	return func(t *testing.T, err error) {
		t.Helper()
		var perr *PanicError
		if !errors.As(err, &perr) || perr.Value != value {
			t.Fatalf("err = %v, want *PanicError %q", err, value)
		}
	}
}

// TestClassifyWaits: the counter is 0 on inline runs, counts the times the
// interpreter blocked on a worker slowed down on purpose, and reaches the
// run report next to the worker's own span.
func TestClassifyWaits(t *testing.T) {
	prog, input, err := workloads.Build("vips", workloads.SimSmall)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		procs  int
		events bool
	}{{"inline", 1, false}, {"events", 2, true}} {
		opts := Options{Telemetry: &telemetry.Metrics{}}
		if c.events {
			opts.Events = &trace.Buffer{}
		}
		_, res, err := runAt(t, c.procs, prog, input, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if w := res.Telemetry[telemetry.ClassifyWaits]; w != 0 {
			t.Errorf("%s: classify_waits = %d, want 0", c.name, w)
		}
	}

	rec := tracing.NewRecorder()
	opts := Options{MaxShadowChunks: 2, Telemetry: &telemetry.Metrics{}, Trace: rec.Local("run")}
	slow := func(tool *Tool) {
		evict, slowed := tool.shadow.onEvict, 0
		tool.shadow.onEvict = func(key uint64, ch *shadowChunk) {
			if slowed < 10 {
				slowed++
				time.Sleep(2 * time.Millisecond)
			}
			evict(key, ch)
		}
	}
	_, res, err := runAt(t, 2, prog, input, opts, slow)
	if err != nil {
		t.Fatal(err)
	}
	waits := res.Telemetry[telemetry.ClassifyWaits]
	if waits == 0 {
		t.Fatal("classify_waits = 0 behind a slowed worker")
	}
	if live := opts.Telemetry.Load(telemetry.ClassifyWaits); live != waits {
		t.Errorf("live counter %d, result %d", live, waits)
	}
	var prom bytes.Buffer
	if err := res.Telemetry.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "\nsigil_classify_waits_total ") {
		t.Error("Prometheus output has no sigil_classify_waits_total")
	}
	if dump := res.Telemetry.Text(); !strings.Contains(dump, " classify_waits "+strconv.FormatUint(waits, 10)) {
		t.Errorf("text dump has no classify_waits %d:\n%s", waits, dump)
	}

	rep := tracing.NewReport("sigil", rec)
	rep.Telemetry = res.Telemetry
	var out bytes.Buffer
	if err := rep.WriteJSON(&out); err != nil {
		t.Fatal(err)
	}
	var back struct {
		Telemetry map[string]uint64 `json:"telemetry"`
		Spans     []struct {
			Name  string `json:"name"`
			Attrs []struct {
				Key   string `json:"key"`
				Value any    `json:"value"`
			} `json:"attrs"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(out.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if got, ok := back.Telemetry["classify_waits"]; !ok || got != waits {
		t.Errorf("run report classify_waits = %d (present %v), want %d", got, ok, waits)
	}
	found := false
	for _, sp := range back.Spans {
		if sp.Name != "classify.worker" {
			continue
		}
		found = true
		attrs := map[string]float64{}
		for _, a := range sp.Attrs {
			if v, ok := a.Value.(float64); ok {
				attrs[a.Key] = v
			}
		}
		if _, ok := attrs["idle"]; !ok || attrs["records"] == 0 || attrs["batches"] == 0 {
			t.Errorf("worker span attrs %v, want records, batches and idle", attrs)
		}
	}
	if !found {
		t.Error("run report has no classify.worker span")
	}
}
