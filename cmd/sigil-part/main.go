// Command sigil-part post-processes a Sigil profile into the paper's HW/SW
// partitioning outputs: the trimmed control data flow graph, the ranked
// acceleration candidates with their breakeven speedups (Tables II/III),
// the coverage split (Fig 7), and optionally a Graphviz rendering.
//
// Usage:
//
//	sigil-part -profile out.profile [-bus 8] [-top 5] [-dot cdfg.dot]
//	sigil-part -workload canneal
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"

	"sigil/internal/cdfg"
	"sigil/internal/cli"
	"sigil/internal/core"
	"sigil/internal/safeio"
	"sigil/internal/workloads"
)

func main() {
	var (
		profFile = flag.String("profile", "", "profile file written by `sigil -o`")
		workload = flag.String("workload", "", "profile this bundled workload instead")
		class    = flag.String("class", "simsmall", "input class with -workload")
		bus      = flag.Float64("bus", 8, "SoC bus bandwidth in bytes per cycle")
		maxBE    = flag.Float64("maxbreakeven", 0, "candidate viability cutoff (0 = any finite)")
		top      = flag.Int("top", 5, "candidates to list from each end")
		dotFile  = flag.String("dot", "", "write the CDFG in Graphviz format")
		offload  = flag.Float64("offload", 0, "estimate app speedup assuming this accelerator speedup (0 = skip)")
		accels   = flag.Int("accelerators", 0, "accelerator budget for -offload (0 = unlimited)")
	)
	tel = cli.RegisterTelemetry(flag.CommandLine, "sigil-part")
	flag.Parse()

	ctx, stop := cli.Context()
	defer stop()
	stopTel, err := tel.Start()
	if err != nil {
		fatal(err)
	}
	defer stopTel()

	load := tel.StartSpan("load")
	res, err := loadResult(ctx, *profFile, *workload, *class, tel)
	load.End()
	if err != nil {
		fatal(err)
	}
	if res.Telemetry != nil {
		art.Telemetry = res.Telemetry
	}
	partition := tel.StartSpan("partition")
	defer func() {
		partition.End()
		tel.Finish(art)
	}()
	g, err := cdfg.Build(res, cdfg.Config{BytesPerCycle: *bus, MaxBreakeven: *maxBE})
	if err != nil {
		fatal(err)
	}
	tr := g.Trim()

	fmt.Printf("contexts: %d   total estimated cycles: %d\n", len(g.Nodes), tr.TotalCycles)
	fmt.Printf("coverage of candidate leaves: %.1f%% (%d candidates)\n\n",
		100*tr.Coverage(), len(tr.Candidates))

	fmt.Println("best candidates (lowest breakeven speedup):")
	printCands(tr.TopByBreakeven(*top))
	fmt.Println("\nworst candidates:")
	printCands(tr.BottomByBreakeven(*top))

	if *offload > 0 {
		est, err := tr.EstimateOffload(cdfg.OffloadConfig{Speedup: *offload, MaxAccelerators: *accels})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\noffload model (assumed %gx accelerators):\n", *offload)
		fmt.Printf("  baseline %d cycles -> %.0f cycles: app speedup %.2fx with %d accelerators\n",
			est.BaselineCycles, est.AcceleratedCycles, est.AppSpeedup, len(est.Selected))
		for _, g := range est.Selected {
			fmt.Printf("  %-40s gain %.0f cycles (sw %d, offloaded %.0f)\n",
				clip(g.Path, 40), g.Gain, g.SwCycles, g.AccelCycles)
		}
	}

	if *dotFile != "" {
		err := safeio.WriteFile(*dotFile, func(w io.Writer) error {
			return g.WriteDOT(w, tr)
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nCDFG written to %s\n", *dotFile)
	}
}

func printCands(cands []cdfg.Candidate) {
	fmt.Printf("  %-40s %12s %14s %10s %10s\n", "context", "S(breakeven)", "incl cycles", "ext in B", "ext out B")
	for _, c := range cands {
		be := fmt.Sprintf("%.3f", c.Breakeven)
		if math.IsInf(c.Breakeven, 1) {
			be = "inf"
		}
		fmt.Printf("  %-40s %12s %14d %10d %10d\n", clip(c.Path, 40), be,
			c.InclCycles, c.ExtIn, c.ExtOut)
	}
}

func loadResult(ctx context.Context, profFile, workload, class string, tel *cli.Telemetry) (*core.Result, error) {
	switch {
	case profFile != "" && workload != "":
		return nil, fmt.Errorf("use either -profile or -workload")
	case profFile != "":
		return core.ReadProfileFile(profFile)
	case workload != "":
		c, err := workloads.ParseClass(class)
		if err != nil {
			return nil, err
		}
		prog, input, err := workloads.Build(workload, c)
		if err != nil {
			return nil, err
		}
		return core.RunContext(ctx, prog, core.Options{Telemetry: tel.Metrics(), Trace: tel.TraceBuf()}, input)
	default:
		return nil, fmt.Errorf("need -profile or -workload")
	}
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return "…" + s[len(s)-n+1:]
}

// tel and art are package-level so fatal can flush run artifacts before
// exiting.
var (
	tel *cli.Telemetry
	art cli.Artifacts
)

func fatal(err error) {
	if tel != nil {
		art.Err = err
		tel.Finish(art)
	}
	cli.Fatal("sigil-part", err)
}
