// Command experiments regenerates every table and figure of the paper's
// evaluation section and prints them as text tables.
//
// Usage:
//
//	experiments [-only fig7] [-reps 3]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"sigil/internal/cli"
	"sigil/internal/experiments"
)

var (
	only = flag.String("only", "", "run a single experiment: "+names())
	reps = flag.Int("reps", 3, "timing repetitions (median reported)")
	par  = flag.Int("p", runtime.GOMAXPROCS(0), "parallel workers for profile/trace generation (timings always run sequentially; live telemetry attaches to runs only with -p=1)")
)

func main() {
	os.Exit(cli.Main("experiments", run))
}

func run(ctx context.Context, tel *cli.Telemetry, _ *cli.Artifacts) error {
	s := experiments.NewSuite()
	s.TimingReps = *reps
	s.Workers = *par
	s.Ctx = ctx
	s.Telemetry = tel.Metrics()
	// Unlike the shared metrics gauges, the tracer is safe at any -p:
	// every profiling run records into its own track.
	s.Tracer = tel.Recorder()

	if *only == "" {
		// Generate the profile/trace matrix on all workers up front; the
		// figures then render from cache (timings still measure
		// sequentially for wall-clock fidelity).
		if err := s.Prewarm(); err != nil {
			return fmt.Errorf("prewarm: %w", err)
		}
		out, err := s.RenderAll()
		fmt.Print(out)
		return err
	}
	for _, e := range experiments.Experiments {
		if !strings.EqualFold(*only, e.Name) {
			continue
		}
		out, err := e.Render(s)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		fmt.Println(out)
		return nil
	}
	return fmt.Errorf("unknown experiment %q (see -h)", *only)
}

// names lists the experiments -only takes.
func names() string {
	var names []string
	for _, e := range experiments.Experiments {
		names = append(names, e.Name)
	}
	return strings.Join(names, ", ")
}
