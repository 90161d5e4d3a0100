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
	"os"

	"sigil/internal/cdfg"
	"sigil/internal/cli"
	"sigil/internal/core"
	"sigil/internal/safeio"
)

var (
	profFile = flag.String("profile", "", "profile file written by `sigil -o`")
	workload = flag.String("workload", "", "profile this bundled workload instead")
	class    = flag.String("class", "simsmall", "input class with -workload")
	bus      = flag.Float64("bus", 8, "SoC bus bandwidth in bytes per cycle")
	maxBE    = flag.Float64("maxbreakeven", 0, "candidate viability cutoff (0 = any finite)")
	top      = flag.Int("top", 5, "candidates to list from each end (0 = all)")
	dotFile  = flag.String("dot", "", "write the CDFG in Graphviz format")
	offload  = flag.Float64("offload", 0, "estimate app speedup assuming this accelerator speedup (0 = skip)")
	accels   = flag.Int("accelerators", 0, "accelerator budget for -offload (0 = unlimited)")
)

func main() {
	os.Exit(cli.Main("sigil-part", run))
}

func run(ctx context.Context, tel *cli.Telemetry, _ *cli.Artifacts) error {
	if *top < 0 {
		return fmt.Errorf("-top %d: must not be negative", *top)
	}
	load := tel.StartSpan("load")
	res, err := cli.LoadResult(ctx, *profFile, *workload, *class,
		core.Options{Telemetry: tel.Metrics(), Trace: tel.TraceBuf()})
	load.End()
	if err != nil {
		return err
	}
	partition := tel.StartSpan("partition")
	defer partition.End()
	g, err := cdfg.Build(res, cdfg.Config{BytesPerCycle: *bus, MaxBreakeven: *maxBE})
	if err != nil {
		return err
	}
	tr := g.Trim()

	fmt.Printf("contexts: %d   total estimated cycles: %d\n", len(g.Nodes), tr.TotalCycles)
	fmt.Printf("coverage of candidate leaves: %.1f%% (%d candidates)\n\n",
		100*tr.Coverage(), len(tr.Candidates))

	k := *top
	if k == 0 {
		k = len(tr.Candidates)
	}
	fmt.Println("best candidates (lowest breakeven speedup):")
	printCands(tr.TopByBreakeven(k))
	fmt.Println("\nworst candidates:")
	printCands(tr.BottomByBreakeven(k))

	if *offload > 0 {
		est, err := tr.EstimateOffload(cdfg.OffloadConfig{Speedup: *offload, MaxAccelerators: *accels})
		if err != nil {
			return err
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
			return err
		}
		fmt.Printf("\nCDFG written to %s\n", *dotFile)
	}
	return nil
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

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return "…" + s[len(s)-n+1:]
}
