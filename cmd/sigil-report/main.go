// Command sigil-report profiles a workload once, in re-use mode with its
// event stream, and renders one complete Markdown analysis: communication
// matrix, data-flow edges, partitioning candidates, re-use characterization
// and the critical-path study.
//
// Usage:
//
//	sigil-report -workload dedup [-class simsmall] [-o report.md] [-slots 2,4,8]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"sigil/internal/cdfg"
	"sigil/internal/cli"
	"sigil/internal/core"
	"sigil/internal/report"
	"sigil/internal/safeio"
	"sigil/internal/trace"
	"sigil/internal/workloads"
)

var (
	workload = flag.String("workload", "", "bundled workload name")
	class    = flag.String("class", "simsmall", "input class")
	out      = flag.String("o", "", "output file (default stdout)")
	bus      = flag.Float64("bus", 8, "SoC bus bandwidth, bytes per cycle")
	slotsArg = flag.String("slots", "2,4,8", "slot counts for the scheduling study")
	top      = flag.Int("top", 12, "rows per table (0 = all)")
)

func main() {
	os.Exit(cli.Main("sigil-report", run))
}

func run(ctx context.Context, tel *cli.Telemetry, _ *cli.Artifacts) error {
	if *workload == "" {
		return fmt.Errorf("need -workload (see `sigil -list`)")
	}
	if *top < 0 {
		return fmt.Errorf("-top %d: must not be negative", *top)
	}
	c, err := workloads.ParseClass(*class)
	if err != nil {
		return err
	}
	prog, input, err := workloads.Build(*workload, c)
	if err != nil {
		return err
	}
	slots, err := cli.ParseSlots(*slotsArg)
	if err != nil {
		return err
	}

	// One re-use-mode run collects the aggregates, the re-use data and the
	// events (re-use mode changes neither the aggregates nor the event
	// stream). A report needs it complete, so an interrupt aborts rather
	// than rendering from half the data.
	var buf trace.Buffer
	res, err := core.RunContext(ctx, prog, core.Options{TrackReuse: true, Events: &buf, Telemetry: tel.Metrics(), Trace: tel.TraceBuf()}, input)
	if err != nil {
		return err
	}
	tr := trace.FromBuffer(&buf)

	cfg := report.Config{
		Title:        fmt.Sprintf("Sigil analysis: %s (%s)", *workload, c),
		TopFunctions: *top,
		Partition:    cdfg.Config{BytesPerCycle: *bus},
		Slots:        slots,
	}
	render := tel.StartSpan("render")
	defer render.End()
	if *out != "" {
		return safeio.WriteFile(*out, func(w io.Writer) error {
			return report.Write(w, res, tr, cfg)
		})
	}
	return report.Write(os.Stdout, res, tr, cfg)
}
