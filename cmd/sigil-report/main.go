// Command sigil-report profiles a workload and renders one complete
// Markdown analysis: communication matrix, data-flow edges, partitioning
// candidates, re-use characterization and the critical-path study.
//
// Usage:
//
//	sigil-report -workload dedup [-class simsmall] [-o report.md] [-slots 2,4,8]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"sigil/internal/cdfg"
	"sigil/internal/cli"
	"sigil/internal/core"
	"sigil/internal/report"
	"sigil/internal/safeio"
	"sigil/internal/trace"
	"sigil/internal/workloads"
)

func main() {
	var (
		workload = flag.String("workload", "", "bundled workload name")
		class    = flag.String("class", "simsmall", "input class")
		out      = flag.String("o", "", "output file (default stdout)")
		bus      = flag.Float64("bus", 8, "SoC bus bandwidth, bytes per cycle")
		slotsArg = flag.String("slots", "2,4,8", "slot counts for the scheduling study")
		top      = flag.Int("top", 12, "rows per table")
	)
	tel = cli.RegisterTelemetry(flag.CommandLine, "sigil-report")
	flag.Parse()
	if *workload == "" {
		fatal(fmt.Errorf("need -workload (see `sigil -list`)"))
	}
	c, err := workloads.ParseClass(*class)
	if err != nil {
		fatal(err)
	}
	prog, input, err := workloads.Build(*workload, c)
	if err != nil {
		fatal(err)
	}

	ctx, stop := cli.Context()
	defer stop()
	stopTel, err := tel.Start()
	if err != nil {
		fatal(err)
	}
	defer stopTel()

	// One run collects aggregates + events; a second collects reuse. A
	// report needs both complete, so an interrupt aborts rather than
	// rendering from half the data.
	var buf trace.Buffer
	res, err := core.RunContext(ctx, prog, core.Options{TrackReuse: true, Telemetry: tel.Metrics(), Trace: tel.TraceBuf()}, input)
	if err != nil {
		fatal(err)
	}
	evRes, err := core.RunContext(ctx, prog, core.Options{Events: &buf, Telemetry: tel.Metrics(), Trace: tel.TraceBuf()}, input)
	if err != nil {
		fatal(err)
	}
	art.Telemetry = evRes.Telemetry
	tr := trace.FromBuffer(&buf)

	var slots []int
	for _, s := range strings.Split(*slotsArg, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		n, err := strconv.Atoi(s)
		if err != nil {
			fatal(fmt.Errorf("bad slot count %q: %v", s, err))
		}
		slots = append(slots, n)
	}

	cfg := report.Config{
		Title:        fmt.Sprintf("Sigil analysis: %s (%s)", *workload, c),
		TopFunctions: *top,
		Partition:    cdfg.Config{BytesPerCycle: *bus},
		Slots:        slots,
	}
	render := tel.StartSpan("render")
	if *out != "" {
		err = safeio.WriteFile(*out, func(w io.Writer) error {
			return report.Write(w, res, tr, cfg)
		})
	} else {
		err = report.Write(os.Stdout, res, tr, cfg)
	}
	render.End()
	if err != nil {
		fatal(err)
	}
	tel.Finish(art)
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
	cli.Fatal("sigil-report", err)
}
