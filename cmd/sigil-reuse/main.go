// Command sigil-reuse post-processes a re-use-mode Sigil profile into the
// paper's data-reuse characterizations: the re-use count breakdown (Fig 8),
// the top re-using functions with average lifetimes (Fig 9), a per-function
// lifetime histogram (Figs 10/11), and — for line-mode profiles — the
// per-line breakdown (Fig 12).
//
// Usage:
//
//	sigil-reuse -profile out.profile [-fn conv_gen] [-top 10]
//	sigil-reuse -workload vips -fn conv_gen
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"sigil/internal/cli"
	"sigil/internal/core"
	"sigil/internal/reuse"
)

var (
	profFile = flag.String("profile", "", "re-use-mode profile file")
	workload = flag.String("workload", "", "profile this bundled workload instead")
	class    = flag.String("class", "simsmall", "input class with -workload")
	fn       = flag.String("fn", "", "print the lifetime histogram of this function")
	top      = flag.Int("top", 10, "functions to rank by reused bytes (0 = all)")
	lineMode = flag.Bool("line", false, "collect line-granularity re-use (with -workload)")
)

func main() {
	os.Exit(cli.Main("sigil-reuse", run))
}

func run(ctx context.Context, tel *cli.Telemetry, _ *cli.Artifacts) error {
	load := tel.StartSpan("load")
	res, err := cli.LoadResult(ctx, *profFile, *workload, *class,
		core.Options{TrackReuse: !*lineMode, LineGranularity: *lineMode, Telemetry: tel.Metrics(), Trace: tel.TraceBuf()})
	load.End()
	if err != nil {
		return err
	}
	analyze := tel.StartSpan("analyze")
	defer analyze.End()

	if res.Lines != nil {
		fr := res.Lines.Fractions()
		fmt.Printf("lines touched: %d\n", res.Lines.TotalLines)
		for i, label := range core.BucketLabels {
			fmt.Printf("  reused %-7s %6.1f%%\n", label, 100*fr[i])
		}
		return nil
	}

	bd, err := reuse.Analyze(res)
	if err != nil {
		return err
	}
	fmt.Printf("episodes: %d   zero re-use: %.1f%%   1-9: %.1f%%   >9: %.1f%%\n\n",
		bd.Episodes, 100*bd.Zero, 100*bd.Low, 100*bd.High)

	funcs, err := reuse.TopFunctions(res, *top)
	if err != nil {
		return err
	}
	fmt.Printf("%-32s %14s %16s\n", "function", "reused bytes", "avg lifetime")
	for _, f := range funcs {
		fmt.Printf("%-32s %14d %16.1f\n", f.Name, f.ReusedBytes, f.AvgLifetime)
	}

	if *fn != "" {
		hist, err := reuse.LifetimeHistogram(res, *fn)
		if err != nil {
			return err
		}
		sh := reuse.Shape(hist)
		fmt.Printf("\n%s lifetime histogram (bin = %d instrs; peak bin %d, tail bin %d):\n",
			*fn, core.LifetimeBin, sh.PeakBin, sh.TailBin)
		for bin, v := range hist {
			if v == 0 {
				continue
			}
			bar := 1
			for x := v; x >= 10; x /= 10 {
				bar++
			}
			fmt.Printf("%9d %-10d %s\n", bin*core.LifetimeBin, v, strings.Repeat("*", bar))
		}
	}
	return nil
}
