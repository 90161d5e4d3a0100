// Command sigil profiles a program — a bundled workload or an assembled
// .sasm file — and reports the classified function-level communication. It
// can dump the per-function aggregates (optionally to a reloadable profile
// file) and the event-file representation.
//
// Runs are interruptible and boundable: SIGINT/SIGTERM cancel the run
// cooperatively and whatever was collected is still written (exit 130);
// -timeout, -maxinstrs and -chunkbudget end the run early with a partial
// profile and exit 0. All output files are written atomically, so an
// interrupted invocation leaves either no file or a complete one.
//
// Long runs are observable: -progress logs periodic heartbeats
// (instructions/sec, shadow growth, remaining budget), -telemetry-addr
// serves live Prometheus metrics, expvar, and pprof over HTTP, and
// -log-format switches the run log between text and JSON.
//
// Usage:
//
//	sigil -workload dedup [-class simsmall] [-reuse] [-line] [-o out.profile] [-events out.evt]
//	sigil -asm prog.sasm [-input data.bin] [-timeout 30s] [-maxinstrs 1000000]
//	sigil -workload fft -progress 1s -telemetry-addr :8080
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"sigil/internal/callgrind"
	"sigil/internal/cli"
	"sigil/internal/core"
	"sigil/internal/safeio"
	"sigil/internal/trace"
	"sigil/internal/tracing"
	"sigil/internal/vm"
	"sigil/internal/workloads"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "bundled workload name (see -list)")
		class    = flag.String("class", "simsmall", "input class: simsmall, simmedium, simlarge")
		asmFile  = flag.String("asm", "", "assemble and profile this .sasm file instead")
		inFile   = flag.String("input", "", "file fed to the program's read syscalls (with -asm)")
		reuseM   = flag.Bool("reuse", false, "enable re-use mode (counts and lifetimes)")
		lineM    = flag.Bool("line", false, "line-granularity shadowing")
		lineSize = flag.Int("linesize", 64, "line size for -line")
		memLimit = flag.Int("memlimit", 0, "shadow-memory FIFO limit in chunks (0 = unlimited)")
		timeout  = flag.Duration("timeout", 0, "wall-clock budget for the run (0 = unlimited)")
		maxInstr = flag.Uint64("maxinstrs", 0, "retired-instruction budget (0 = unlimited)")
		chunkBud = flag.Int("chunkbudget", 0, "hard shadow-chunk budget, no eviction (0 = unlimited)")
		outProf  = flag.String("o", "", "write the profile to this file")
		outEvt   = flag.String("events", "", "write the event file to this path")
		evtRetry = flag.Int("events-retries", 0, "retry failing event-sink writes up to this many times (exponential backoff)")
		evtDegr  = flag.Bool("events-degraded", false, "never stall the run on a slow or dead event sink; drop events with exact counted loss instead")
		outCg    = flag.String("callgrind", "", "write the substrate profile in callgrind format")
		gshare   = flag.Bool("gshare", false, "use a gshare branch predictor in the substrate")
		prefetch = flag.Bool("prefetch", false, "enable the substrate's next-line prefetcher")
		top      = flag.Int("top", 15, "functions to print, by unique input bytes")
		list     = flag.Bool("list", false, "list bundled workloads and exit")
		telSnap  = flag.Bool("telemetry-dump", false, "print the final telemetry snapshot after the run")
	)
	tel := cli.RegisterTelemetry(flag.CommandLine, "sigil")
	flag.Parse()

	if *list {
		for _, name := range workloads.Names() {
			s, _ := workloads.Get(name)
			fmt.Printf("%-15s %s\n", name, s.Description)
		}
		return 0
	}

	stopTel, err := tel.Start()
	if err != nil {
		return fail(err)
	}
	defer stopTel()

	// Run artifacts (-run-report, -trace-out, flight dump on bad outcomes)
	// are written on every exit path, including setup failures.
	var art cli.Artifacts
	defer func() { tel.Finish(art) }()

	assemble := tel.StartSpan("assemble")
	prog, input, err := loadProgram(*workload, *class, *asmFile, *inFile)
	assemble.End()
	if err != nil {
		return fail(err)
	}

	opts := core.Options{
		TrackReuse:          *reuseM,
		LineGranularity:     *lineM,
		LineSize:            *lineSize,
		MaxShadowChunks:     *memLimit,
		MaxWall:             *timeout,
		MaxInstrs:           *maxInstr,
		MaxShadowChunksHard: *chunkBud,
		Substrate: callgrind.Options{
			Gshare:   *gshare,
			Prefetch: *prefetch,
		},
		Telemetry: tel.Metrics(),
		Trace:     tel.TraceBuf(),
	}
	var sink *trace.FileSink
	if *outEvt != "" {
		sink, err = trace.CreateFileOptions(*outEvt, trace.WriterOptions{
			MaxRetries: *evtRetry,
			Degraded:   *evtDegr,
			Trace:      tel.NewTrack("trace-writer"),
		})
		if err != nil {
			return fail(err)
		}
		defer sink.Abort() // no-op after Commit
		opts.Events = sink
	}

	ctx, stop := cli.Context()
	defer stop()

	// core traces the run span itself when a span buffer is attached;
	// without one, keep the logged phase span so the assemble → run →
	// write → postprocess timeline stays complete in the logs.
	var runSpan *tracing.Active
	if opts.Trace == nil {
		runSpan = tel.StartSpan("run")
	}
	res, runErr := core.RunContext(ctx, prog, opts, input)
	runSpan.End()
	art.Err = runErr
	if res != nil {
		art.Telemetry = res.Telemetry
	}
	exit := 0
	if runErr != nil {
		if res == nil {
			return fail(runErr)
		}
		// The run ended early but salvaged a partial result: report why,
		// write everything that was collected, and pick the exit status
		// by cause — budgets are a bounded run working as configured,
		// interrupts exit 130 by convention, faults and panics exit 1.
		var budget *core.BudgetError
		switch {
		case errors.As(runErr, &budget):
			fmt.Fprintf(os.Stderr, "sigil: run ended early: %v (partial profile follows)\n", runErr)
		case errors.Is(runErr, context.Canceled):
			fmt.Fprintf(os.Stderr, "sigil: interrupted: %v (partial profile follows)\n", runErr)
			exit = 130
		default:
			fmt.Fprintf(os.Stderr, "sigil: run failed: %v (partial profile follows)\n", runErr)
			exit = 1
		}
	}
	write := tel.StartSpan("write")
	if sink != nil {
		commitErr := sink.Commit()
		st := sink.Stats()
		art.Sink = &st
		if err := commitErr; err != nil {
			if !*evtDegr {
				return fail(err)
			}
			// Degraded mode: the event sink dying must not cost the other
			// artifacts. The target path is untouched (Commit discards the
			// temporary file); report and keep writing the profile.
			fmt.Fprintf(os.Stderr, "sigil: event sink failed, event file not written: %v\n", err)
			exit = 1
			sink = nil
		}
	}
	if sink != nil {
		st := sink.Stats()
		if st.RawBytes > 0 {
			fmt.Printf("event file written to %s (%d events in %d frames, %.1f KiB compressed from %.1f, %d emit stalls)\n",
				*outEvt, st.Events, st.Frames,
				float64(st.CompressedBytes)/1024, float64(st.RawBytes)/1024, st.Stalls)
		} else {
			fmt.Printf("event file written to %s\n", *outEvt)
		}
		if st.Retries > 0 {
			fmt.Printf("event sink retried %d write(s)\n", st.Retries)
		}
		if st.Dropped > 0 {
			fmt.Fprintf(os.Stderr, "sigil: event sink ran degraded: %d event(s) dropped (loss recorded in file footer)\n", st.Dropped)
		}
	}
	if *outProf != "" {
		if err := core.WriteProfileFile(*outProf, res); err != nil {
			return fail(err)
		}
		fmt.Printf("profile written to %s\n", *outProf)
	}
	if *outCg != "" {
		err := safeio.WriteFile(*outCg, func(w io.Writer) error {
			return res.Profile.WriteCallgrindFormat(w)
		})
		if err != nil {
			return fail(err)
		}
		fmt.Printf("callgrind-format profile written to %s\n", *outCg)
	}
	write.End()

	post := tel.StartSpan("postprocess")
	printSummary(res, *top)
	post.End()
	if *telSnap && res.Telemetry != nil {
		fmt.Printf("\ntelemetry snapshot:\n%s", res.Telemetry.Text())
	}
	return exit
}

func loadProgram(workload, class, asmFile, inFile string) (*vm.Program, []byte, error) {
	switch {
	case workload != "" && asmFile != "":
		return nil, nil, fmt.Errorf("use either -workload or -asm, not both")
	case workload != "":
		c, err := workloads.ParseClass(class)
		if err != nil {
			return nil, nil, err
		}
		return workloads.Build(workload, c)
	case asmFile != "":
		src, err := os.ReadFile(asmFile)
		if err != nil {
			return nil, nil, err
		}
		prog, err := vm.Assemble(string(src))
		if err != nil {
			return nil, nil, err
		}
		var input []byte
		if inFile != "" {
			input, err = os.ReadFile(inFile)
			if err != nil {
				return nil, nil, err
			}
		}
		return prog, input, nil
	default:
		return nil, nil, fmt.Errorf("need -workload or -asm (try -list)")
	}
}

func printSummary(res *core.Result, top int) {
	fmt.Printf("instructions: %d   contexts: %d   shadow peak: %.1f MiB\n",
		res.Profile.TotalInstrs, len(res.Profile.Nodes),
		float64(res.Shadow.PeakBytes)/(1<<20))
	total := res.TotalCommunicated()
	fmt.Printf("bytes read: %d (unique input %d, non-unique %d, local %d)\n",
		total.TotalRead(), total.InputUnique, total.InputNonUnique,
		total.LocalUnique+total.LocalNonUnique)
	fmt.Printf("program input: %d B   syscalls: %d B in, %d B out\n\n",
		res.StartupBytes, res.KernelOutBytes, res.KernelInBytes)

	type row struct {
		name string
		c    core.CommStats
	}
	var rows []row
	for name, c := range res.CommByFunction() {
		rows = append(rows, row{name, c})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].c.InputUnique != rows[j].c.InputUnique {
			return rows[i].c.InputUnique > rows[j].c.InputUnique
		}
		return rows[i].name < rows[j].name
	})
	if top > 0 && top < len(rows) {
		rows = rows[:top]
	}
	fmt.Printf("%-32s %12s %12s %12s %12s\n", "function", "in-unique", "in-repeat", "out-unique", "local")
	for _, r := range rows {
		fmt.Printf("%-32s %12d %12d %12d %12d\n", clip(r.name, 32),
			r.c.InputUnique, r.c.InputNonUnique, r.c.OutputUnique,
			r.c.LocalUnique+r.c.LocalNonUnique)
	}

	if res.Reuse != nil {
		var agg core.ReuseStats
		for i := range res.Reuse {
			agg.Add(res.Reuse[i])
		}
		fmt.Printf("\nreuse episodes: %d (zero %d, 1-9 %d, >9 %d)\n",
			agg.Episodes, agg.ZeroReuse, agg.Low, agg.High)
	}
	if res.Lines != nil {
		fr := res.Lines.Fractions()
		fmt.Printf("\nlines touched: %d  reuse buckets <10/<100/<1k/<10k/>=10k: %.1f%% %.1f%% %.1f%% %.1f%% %.1f%%\n",
			res.Lines.TotalLines, 100*fr[0], 100*fr[1], 100*fr[2], 100*fr[3], 100*fr[4])
	}
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "sigil:", err)
	return 1
}
