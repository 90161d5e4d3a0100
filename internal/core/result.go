package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"sigil/internal/callgrind"
	"sigil/internal/dbi"
	"sigil/internal/telemetry"
	"sigil/internal/trace"
	"sigil/internal/tracing"
	"sigil/internal/vm"
)

// Result is a completed Sigil profile: the substrate's calltree profile plus
// the communication classification, re-use statistics, and shadow-memory
// accounting.
type Result struct {
	// Profile is the substrate profile: the calltree with per-context
	// instruction/op/cache/branch costs.
	Profile *callgrind.Profile

	// Comm holds per-context communication aggregates, indexed by
	// context ID (same indexing as Profile.Nodes).
	Comm []CommStats

	// Edges lists producer→consumer aggregates, sorted by (Src, Dst).
	Edges []Edge

	// Reuse holds per-context re-use statistics (nil unless re-use mode).
	Reuse []ReuseStats

	// Lines is the line-granularity report (nil unless line mode).
	Lines *LineReport

	// Shadow describes the shadow memory footprint.
	Shadow ShadowStats

	// StartupBytes counts unique bytes consumed from pre-initialized
	// data; KernelOutBytes/KernelInBytes count unique bytes crossing the
	// syscall boundary into and out of the program.
	StartupBytes   uint64
	KernelOutBytes uint64
	KernelInBytes  uint64

	// Wall is the instrumented run's wall-clock duration; Native runs of
	// the same program are measured separately for slowdown figures.
	Wall time.Duration

	// Telemetry is the run's final telemetry snapshot — the same
	// counters the live endpoints serve, frozen at end of run, so the
	// profiler's own cost (shadow footprint, sim work, event volume) is
	// a first-class output. Populated by Run/RunContext; nil for results
	// reloaded from profile files.
	Telemetry *telemetry.Snapshot
}

// freeze assembles the Result after ProgramEnd.
func (t *Tool) freeze() *Result {
	if !t.finished {
		return nil
	}
	if t.result != nil {
		return t.result
	}
	edges := make([]Edge, 0, len(t.edges))
	for _, e := range t.edges {
		edges = append(edges, *e)
	}
	sortEdges(edges)
	granule := uint64(1)
	if t.opts.LineGranularity {
		granule = uint64(t.opts.LineSize)
	}
	r := &Result{
		Profile:        t.sub.Profile(),
		Comm:           t.comm,
		Edges:          edges,
		Lines:          t.lines,
		Shadow:         t.shadow.stats(granule),
		StartupBytes:   t.startupOut,
		KernelOutBytes: t.kernelOut,
		KernelInBytes:  t.kernelIn,
	}
	if t.opts.TrackReuse {
		r.Reuse = t.reuse
	}
	t.result = r
	return r
}

// Result returns the profile after the run has completed, or an error if the
// tool has not finished observing a program.
func (t *Tool) Result() (*Result, error) {
	r := t.freeze()
	if r == nil {
		return nil, fmt.Errorf("core: result requested before the run completed")
	}
	return r, nil
}

// CommByFunction aggregates communication across contexts per function name.
func (r *Result) CommByFunction() map[string]CommStats {
	out := make(map[string]CommStats)
	for id, n := range r.Profile.Nodes {
		if id < len(r.Comm) {
			s := out[n.Name]
			s.Add(r.Comm[id])
			out[n.Name] = s
		}
	}
	return out
}

// ReuseByFunction aggregates re-use statistics per function name.
func (r *Result) ReuseByFunction() map[string]ReuseStats {
	out := make(map[string]ReuseStats)
	if r.Reuse == nil {
		return out
	}
	for id, n := range r.Profile.Nodes {
		if id < len(r.Reuse) {
			s := out[n.Name]
			s.Add(r.Reuse[id])
			out[n.Name] = s
		}
	}
	return out
}

// CtxName names a context ID, covering the synthetic producers.
func (r *Result) CtxName(ctx int32) string {
	switch ctx {
	case trace.CtxStartup:
		return "@startup"
	case trace.CtxKernel:
		return "@kernel"
	}
	if int(ctx) < len(r.Profile.Nodes) && ctx >= 0 {
		return r.Profile.Nodes[ctx].Name
	}
	return fmt.Sprintf("<ctx#%d>", ctx)
}

// CtxPath returns the full calltree path of a context ID.
func (r *Result) CtxPath(ctx int32) string {
	if ctx >= 0 && int(ctx) < len(r.Profile.Nodes) {
		return r.Profile.Nodes[ctx].Path()
	}
	return r.CtxName(ctx)
}

// TotalCommunicated sums all classified bytes across contexts (inputs plus
// locals; outputs are the same bytes seen from the producer side).
func (r *Result) TotalCommunicated() CommStats {
	var total CommStats
	for _, c := range r.Comm {
		total.Add(c)
	}
	return total
}

// Run profiles one program under Sigil with a fresh machine and substrate,
// returning the completed result. It is RunContext without cancellation;
// callers needing the substrate mid-run can build it and the Sigil tool
// themselves.
func Run(p *vm.Program, opts Options, input []byte) (*Result, error) {
	return RunContext(context.Background(), p, opts, input)
}

// RunContext profiles one program under Sigil with cooperative
// cancellation and the resource budgets of Options. Instrumented runs are
// ~100x slower than native, so interrupted and over-budget runs are the
// normal case at scale, not a failure: whenever the run ends early — the
// context is cancelled, a budget is exhausted, the program faults, or the
// instrumentation path panics — RunContext salvages and returns the
// partial Result collected so far alongside a typed error (*BudgetError,
// *vm.CancelError wrapping the context error, or *PanicError). Only setup
// failures return a nil Result.
func RunContext(ctx context.Context, p *vm.Program, opts Options, input []byte) (*Result, error) {
	sub, err := callgrind.New(opts.Substrate)
	if err != nil {
		return nil, err
	}
	tool, err := New(sub, opts)
	if err != nil {
		return nil, err
	}
	return runTool(ctx, tool, p, opts, input)
}

// runTool is RunContext on a tool built from opts.
func runTool(ctx context.Context, tool *Tool, p *vm.Program, opts Options, input []byte) (res *Result, err error) {
	start := time.Now()

	// Effective metrics block: the caller's, or — when only a tracer is
	// attached — a private one, so span deltas and Result.Telemetry are
	// computed from the same counters and reconcile exactly.
	tel := opts.Telemetry
	if tel == nil && opts.Trace != nil {
		tel = &telemetry.Metrics{}
	}
	var epoch uint64
	if tel != nil {
		tel.BeginRun(start, opts.MaxInstrs, opts.MaxWall)
		epoch = tel.Load(telemetry.RunEpoch)
	}
	tracing.Flight().Record(tracing.KindPhase, "run:start", epoch, 0)

	var runSpan *tracing.Active
	if b := opts.Trace; b != nil {
		prev := b.SetMetrics(tel)
		defer b.SetMetrics(prev)
		runSpan = b.Start("run")
	}

	defer func() {
		if r := recover(); r != nil {
			// Salvage what the run collected before the panic: finish
			// observation (the machine never reached ProgramEnd) and
			// freeze the partial aggregates.
			tool.abort()
			res, _ = tool.Result()
			if res != nil {
				res.Wall = time.Since(start)
				// Best-effort final snapshot: the sampler walks the
				// same structures that just panicked, so a second
				// failure leaves Telemetry nil rather than masking
				// the original panic.
				func() {
					defer func() { _ = recover() }()
					res.Telemetry = finalSnapshot(tool, tel, opts, start, res.Wall)
				}()
			}
			perr := &PanicError{Value: r, Stack: debug.Stack()}
			if wp, ok := r.(*workerPanic); ok {
				perr.Value, perr.Stack = wp.value, wp.stack
			}
			recordRunEnd(runSpan, perr)
			err = perr
		}
	}()

	stop := budgetCheck(opts, tool, start)
	if tel != nil {
		// Piggyback sampling on the machine's poll point: the hot loop
		// already branches here every vm.StopCheckInterval instructions,
		// so live metrics (and the tracer's sample timeline) cost one
		// extra call per poll, not per event.
		tool.tel = tel
		inner := stop
		stop = func() error {
			tool.poll()
			if inner != nil {
				return inner()
			}
			return nil
		}
	}
	run, runErr := dbi.RunContext(ctx, p, tool, input, stop)
	out, resErr := tool.Result()
	if out != nil {
		out.Wall = run.Duration
		out.Telemetry = finalSnapshot(tool, tel, opts, start, run.Duration)
	}
	recordRunEnd(runSpan, runErr)
	if runErr != nil {
		// Early stop or fault: hand back the partial result with the
		// typed cause so callers keep the data already collected.
		return out, runErr
	}
	if evErr := tool.EventError(); evErr != nil {
		return out, fmt.Errorf("core: event sink failed: %w", evErr)
	}
	if resErr != nil {
		return nil, resErr
	}
	return out, nil
}

// recordRunEnd closes the run span with the outcome and drops the matching
// flight-recorder events so budget kills, panics and cancellations are
// visible in the ring, between the run's markers, even when no span buffer
// was attached. Every run, the panicking ones included, ends here.
func recordRunEnd(runSpan *tracing.Active, runErr error) {
	outcome := Outcome(runErr)
	switch outcome {
	case "budget":
		var budget *BudgetError
		errors.As(runErr, &budget)
		tracing.Flight().Record(tracing.KindBudget, budget.Resource, budget.Limit, budget.Used)
	case "panic":
		tracing.Flight().Record(tracing.KindPanic, "run", 0, 0)
	case "interrupted":
		tracing.Flight().Record(tracing.KindCancel, "run", 0, 0)
	}
	tracing.Flight().Record(tracing.KindPhase, "run:end", 0, 0)
	runSpan.End(tracing.A("outcome", outcome))
}

// budgetCheck builds the machine stop hook enforcing the Options budgets;
// it returns nil when no budget is set, keeping the dispatch loop free of
// polling.
func budgetCheck(opts Options, tool *Tool, start time.Time) func() error {
	if opts.MaxWall <= 0 && opts.MaxInstrs == 0 && opts.MaxShadowChunksHard == 0 {
		return nil
	}
	return func() error {
		if opts.MaxInstrs > 0 {
			if used := tool.sub.Now(); used >= opts.MaxInstrs {
				return &BudgetError{Resource: "instructions", Limit: opts.MaxInstrs, Used: used}
			}
		}
		if opts.MaxWall > 0 {
			if used := time.Since(start); used >= opts.MaxWall {
				return &BudgetError{Resource: "wall-clock", Limit: uint64(opts.MaxWall), Used: uint64(used)}
			}
		}
		if opts.MaxShadowChunksHard > 0 {
			tool.sync()
			if used := tool.shadow.allocated; used >= uint64(opts.MaxShadowChunksHard) {
				return &BudgetError{Resource: "shadow-chunks", Limit: uint64(opts.MaxShadowChunksHard), Used: used}
			}
		}
		return nil
	}
}
