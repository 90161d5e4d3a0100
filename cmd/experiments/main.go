// Command experiments regenerates every table and figure of the paper's
// evaluation section and prints them as text tables.
//
// Usage:
//
//	experiments [-only fig7] [-reps 3]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"sigil/internal/cli"
	"sigil/internal/experiments"
)

func main() {
	only := flag.String("only", "", "run a single experiment: table1, fig4..fig13, table2, table3, telemetry, chains, eventfile")
	reps := flag.Int("reps", 3, "timing repetitions (median reported)")
	par := flag.Int("p", runtime.GOMAXPROCS(0), "parallel workers for profile/trace generation (timings always run sequentially; live telemetry attaches to runs only with -p=1)")
	tel := cli.RegisterTelemetry(flag.CommandLine, "experiments")
	flag.Parse()

	ctx, stop := cli.Context()
	defer stop()
	stopTel, err := tel.Start()
	if err != nil {
		cli.Fatal("experiments", err)
	}
	defer stopTel()

	s := experiments.NewSuite()
	s.TimingReps = *reps
	s.Workers = *par
	s.Ctx = ctx
	s.Telemetry = tel.Metrics()
	// Unlike the shared metrics gauges, the tracer is safe at any -p:
	// every profiling run records into its own track.
	s.Tracer = tel.Recorder()

	finish := func(err error) {
		art := cli.Artifacts{Err: err}
		if m := tel.Metrics(); m != nil {
			snap := m.Snapshot()
			art.Telemetry = &snap
		}
		tel.Finish(art)
	}
	fail := func(err error) {
		finish(err)
		os.Exit(cli.ExitCode(err))
	}
	defer finish(nil)
	run := func(name string, f func() (string, error)) {
		if *only != "" && !strings.EqualFold(*only, name) {
			return
		}
		out, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
			fail(err)
		}
		fmt.Println(out)
	}

	if *only == "" {
		// Generate the profile/trace matrix on all workers up front; the
		// figures then render from cache (timings still measure
		// sequentially for wall-clock fidelity).
		if err := s.Prewarm(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: prewarm: %v\n", err)
			fail(err)
		}
		out, err := s.RenderAll()
		fmt.Print(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			fail(err)
		}
		chains, err := s.CriticalPathChains()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			fail(err)
		}
		fmt.Print(experiments.RenderChains(chains, "§IV-C chain"))
		return
	}

	run("table1", func() (string, error) { return experiments.TableI().Render(), nil })
	run("fig4", func() (string, error) { r, err := s.Figure4(); return render(r, err) })
	run("fig5", func() (string, error) { r, err := s.Figure5(); return render(r, err) })
	run("fig6", func() (string, error) { r, err := s.Figure6(); return render(r, err) })
	run("fig7", func() (string, error) { r, err := s.Figure7(); return render(r, err) })
	run("table2", func() (string, error) { r, err := s.TableII(5); return render(r, err) })
	run("table3", func() (string, error) { r, err := s.TableIII(5); return render(r, err) })
	run("fig8", func() (string, error) { r, err := s.Figure8(); return render(r, err) })
	run("fig9", func() (string, error) { r, err := s.Figure9(8); return render(r, err) })
	run("fig10", func() (string, error) { r, err := s.Figure10(); return render(r, err) })
	run("fig11", func() (string, error) { r, err := s.Figure11(); return render(r, err) })
	run("fig12", func() (string, error) { r, err := s.Figure12(); return render(r, err) })
	run("fig13", func() (string, error) { r, err := s.Figure13(); return render(r, err) })
	run("telemetry", func() (string, error) { r, err := s.RunTelemetry(); return render(r, err) })
	run("schedule", func() (string, error) {
		r, err := s.ScheduleCurve([]int{2, 4, 8, 16})
		return render(r, err)
	})
	run("commaware", func() (string, error) {
		r, err := s.CommAwareCurve(0.25)
		return render(r, err)
	})
	run("memlimit", func() (string, error) {
		r, err := s.MemoryLimitAccuracy("dedup", 12)
		return render(r, err)
	})
	run("offload", func() (string, error) {
		r, err := s.OffloadStudy(10)
		return render(r, err)
	})
	run("eventfile", func() (string, error) {
		r, err := s.EventFileStats()
		return render(r, err)
	})
	run("chains", func() (string, error) {
		chains, err := s.CriticalPathChains()
		if err != nil {
			return "", err
		}
		return experiments.RenderChains(chains, ""), nil
	})
}

func render(r interface{ Render() string }, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}
