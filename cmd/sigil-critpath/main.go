// Command sigil-critpath post-processes a Sigil event file into dependency
// chains: the critical path, its function chain, and the maximum
// theoretical function-level parallelism (the paper's Fig 13 metric).
//
// Usage:
//
//	sigil-critpath -events out.evt
//	sigil-critpath -workload streamcluster
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"sigil/internal/cli"
	"sigil/internal/core"
	"sigil/internal/critpath"
	"sigil/internal/trace"
	"sigil/internal/tracing"
	"sigil/internal/workloads"
)

func main() {
	var (
		evtFile  = flag.String("events", "", "event file written by `sigil -events`")
		workload = flag.String("workload", "", "trace this bundled workload instead")
		class    = flag.String("class", "simsmall", "input class with -workload")
		commCost = flag.Float64("opsperbyte", 0, "charge data edges at this many ops per byte")
		slots    = flag.String("slots", "", "comma-separated slot counts to schedule onto (e.g. 2,4,8)")
		salvage  = flag.Bool("salvage", false, "recover the valid prefix of a truncated/corrupt event file")
	)
	tel = cli.RegisterTelemetry(flag.CommandLine, "sigil-critpath")
	flag.Parse()

	ctx, stop := cli.Context()
	defer stop()
	stopTel, err := tel.Start()
	if err != nil {
		fatal(err)
	}
	defer stopTel()

	load := tel.StartSpan("load")
	tr, err := loadTrace(ctx, *evtFile, *workload, *class, *salvage, tel)
	load.End()
	if err != nil {
		fatal(err)
	}
	analyze := tel.StartSpan("analyze")
	a, err := critpath.AnalyzeWithComm(tr, critpath.CommConfig{OpsPerByte: *commCost})
	analyze.End()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("serial length:      %d ops\n", a.SerialOps)
	fmt.Printf("critical path:      %d ops over %d segments", a.CriticalOps, a.Segments)
	if *commCost > 0 {
		fmt.Printf(" (communication charged at %.2f ops/byte)", *commCost)
	}
	fmt.Println()
	fmt.Printf("max parallelism:    %.2f\n", a.Parallelism())
	if len(a.Chain) > 0 {
		leafToMain := make([]string, len(a.Chain))
		for i, fn := range a.Chain {
			leafToMain[len(a.Chain)-1-i] = fn
		}
		fmt.Printf("critical chain:     %s\n", strings.Join(leafToMain, " -> "))
	}
	if *slots != "" {
		sched := tel.StartSpan("schedule")
		fmt.Println("\nschedule onto bounded slots:")
		fmt.Printf("  %-6s %12s %10s %12s %14s\n", "slots", "makespan", "speedup", "utilization", "cross-slot B")
		for _, s := range strings.Split(*slots, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fatal(fmt.Errorf("bad slot count %q: %v", s, err))
			}
			r, err := critpath.Schedule(tr, n)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("  %-6d %12d %10.2f %12.2f %14d\n",
				n, r.Makespan, r.Speedup(), r.Utilization(), r.CrossSlotBytes)
		}
		sched.End()
	}
	tel.Finish(art)
}

func loadTrace(ctx context.Context, evtFile, workload, class string, salvage bool, tel *cli.Telemetry) (*trace.Trace, error) {
	switch {
	case evtFile != "" && workload != "":
		return nil, fmt.Errorf("use either -events or -workload")
	case evtFile != "":
		f, err := os.Open(evtFile)
		if err != nil {
			return nil, err
		}
		tr, err := readEventFile(f, salvage)
		if cerr := f.Close(); err == nil && cerr != nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		return tr, nil
	case workload != "":
		c, err := workloads.ParseClass(class)
		if err != nil {
			return nil, err
		}
		prog, input, err := workloads.Build(workload, c)
		if err != nil {
			return nil, err
		}
		var buf trace.Buffer
		opts := core.Options{Events: &buf, Telemetry: tel.Metrics(), Trace: tel.TraceBuf()}
		res, err := core.RunContext(ctx, prog, opts, input)
		if err != nil {
			return nil, err
		}
		art.Telemetry = res.Telemetry
		return trace.FromBuffer(&buf), nil
	default:
		return nil, fmt.Errorf("need -events or -workload")
	}
}

// readEventFile decodes an event file, either salvaging a damaged one or
// fanning the frame decode out across GOMAXPROCS workers.
func readEventFile(f *os.File, salvage bool) (*trace.Trace, error) {
	if salvage {
		tr, rep, err := trace.Salvage(f)
		if err != nil {
			return nil, err
		}
		art.Salvage = &tracing.SalvageInfo{
			Complete:          rep.Complete,
			Truncated:         rep.Truncated,
			Events:            uint64(rep.Events),
			EventsDropped:     rep.EventsDropped,
			FramesQuarantined: rep.FramesQuarantined,
			BytesRead:         uint64(rep.BytesValid),
			BytesDropped:      uint64(rep.BytesTotal - rep.BytesValid),
		}
		fmt.Fprintf(os.Stderr, "sigil-critpath: %s\n", rep)
		// A quarantined mid-stream frame leaves a gap: surviving events can
		// reference calls whose Enter fell in the hole. Drop those so the
		// analyzer sees a consistent (truncation-shaped) stream.
		if pruned := tr.PruneDanglingCalls(); pruned > 0 {
			fmt.Fprintf(os.Stderr, "sigil-critpath: dropped %d event(s) referencing calls lost in quarantined frames\n", pruned)
		}
		return tr, nil
	}
	tr, err := trace.ReadAll(f)
	if errors.Is(err, trace.ErrTruncated) || errors.Is(err, trace.ErrCorrupt) {
		return nil, fmt.Errorf("%w (rerun with -salvage to recover the valid prefix)", err)
	}
	return tr, err
}

// tel and art are package-level so fatal can flush run artifacts (report,
// trace, flight dump) on every exit path.
var (
	tel *cli.Telemetry
	art cli.Artifacts
)

func fatal(err error) {
	if tel != nil {
		art.Err = err
		tel.Finish(art)
	}
	cli.Fatal("sigil-critpath", err)
}
