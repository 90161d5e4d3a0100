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
	only = flag.String("only", "", "run a single experiment: table1, fig4..fig13, table2, table3, telemetry, schedule, commaware, memlimit, offload, eventfile, chains")
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
		if err != nil {
			return err
		}
		chains, err := s.CriticalPathChains()
		if err != nil {
			return err
		}
		fmt.Print(experiments.RenderChains(chains, "§IV-C chain"))
		return nil
	}

	for _, e := range []struct {
		name string
		f    func() (string, error)
	}{
		{"table1", func() (string, error) { return experiments.TableI().Render(), nil }},
		{"fig4", func() (string, error) { r, err := s.Figure4(); return render(r, err) }},
		{"fig5", func() (string, error) { r, err := s.Figure5(); return render(r, err) }},
		{"fig6", func() (string, error) { r, err := s.Figure6(); return render(r, err) }},
		{"fig7", func() (string, error) { r, err := s.Figure7(); return render(r, err) }},
		{"table2", func() (string, error) { r, err := s.TableII(5); return render(r, err) }},
		{"table3", func() (string, error) { r, err := s.TableIII(5); return render(r, err) }},
		{"fig8", func() (string, error) { r, err := s.Figure8(); return render(r, err) }},
		{"fig9", func() (string, error) { r, err := s.Figure9(8); return render(r, err) }},
		{"fig10", func() (string, error) { r, err := s.Figure10(); return render(r, err) }},
		{"fig11", func() (string, error) { r, err := s.Figure11(); return render(r, err) }},
		{"fig12", func() (string, error) { r, err := s.Figure12(); return render(r, err) }},
		{"fig13", func() (string, error) { r, err := s.Figure13(); return render(r, err) }},
		{"telemetry", func() (string, error) { r, err := s.RunTelemetry(); return render(r, err) }},
		{"schedule", func() (string, error) { r, err := s.ScheduleCurve([]int{2, 4, 8, 16}); return render(r, err) }},
		{"commaware", func() (string, error) { r, err := s.CommAwareCurve(0.25); return render(r, err) }},
		{"memlimit", func() (string, error) { r, err := s.MemoryLimitAccuracy("dedup", 12); return render(r, err) }},
		{"offload", func() (string, error) { r, err := s.OffloadStudy(10); return render(r, err) }},
		{"eventfile", func() (string, error) { r, err := s.EventFileStats(); return render(r, err) }},
		{"chains", func() (string, error) {
			chains, err := s.CriticalPathChains()
			if err != nil {
				return "", err
			}
			return experiments.RenderChains(chains, ""), nil
		}},
	} {
		if !strings.EqualFold(*only, e.name) {
			continue
		}
		out, err := e.f()
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Println(out)
		return nil
	}
	return fmt.Errorf("unknown experiment %q (see -h)", *only)
}

func render(r interface{ Render() string }, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}
