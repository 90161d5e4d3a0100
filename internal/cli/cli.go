// Package cli factors the plumbing every sigil command shares: one exit
// path (Main: the signal context, the telemetry flag set of live
// endpoints, progress heartbeats, structured run logs, run-report and
// trace artifacts, and the exit status), and the inputs more than one tool
// takes (a profile or a bundled workload, a list of slot counts).
package cli

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sigil/internal/core"
	"sigil/internal/safeio"
	"sigil/internal/telemetry"
	"sigil/internal/trace"
	"sigil/internal/tracing"
	"sigil/internal/workloads"
)

// Context returns a context cancelled on SIGINT or SIGTERM — the one
// cooperative-shutdown path all tools run under. The CancelFunc restores
// default signal handling, so a second signal kills the process outright.
func Context() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// Main runs a command and returns its exit status: a command's main is
// os.Exit(cli.Main(tool, body)). Main registers the telemetry flags on the
// command line's flag set, parses it, and runs body under Context with
// telemetry started; body records in art what the run report carries.
// Whatever body returns, Main then writes the run artifacts with body's
// error; an artifact that fails to write becomes the command's error when
// body's would exit 0. Main then stops telemetry (the heartbeat logs its
// final beat), prints one stderr line for a non-nil error, worded by its
// core.Outcome, and returns ExitCode of the error. The exit status, the
// stderr line and the run report's outcome thus all come from one error.
func Main(tool string, body func(ctx context.Context, tel *Telemetry, art *Artifacts) error) int {
	tel := RegisterTelemetry(flag.CommandLine, tool)
	flag.Parse()
	var art Artifacts
	stopTel, err := tel.Start()
	if err == nil {
		ctx, stop := Context()
		err = body(ctx, tel, &art)
		stop()
	}
	err = tel.finish(art, err)
	if stopTel != nil {
		stopTel()
	}
	switch core.Outcome(err) {
	case "ok":
	case "budget":
		fmt.Fprintf(os.Stderr, "%s: run ended early: %v\n", tool, err)
	case "interrupted":
		fmt.Fprintf(os.Stderr, "%s: interrupted: %v\n", tool, err)
	default:
		fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	}
	return ExitCode(err)
}

// ExitCode maps an error to the tools' shared exit convention: 0 for
// success and for a run a budget ended (a bounded run working as
// configured), 130 for an interrupted run (the shell convention for
// SIGINT), 1 for everything else.
func ExitCode(err error) int {
	var budget *core.BudgetError
	switch {
	case err == nil || errors.As(err, &budget):
		return 0
	case errors.Is(err, context.Canceled):
		return 130
	default:
		return 1
	}
}

// LoadResult reads the profile at profFile or, when workload is named
// instead, profiles that bundled workload at class under opts.
func LoadResult(ctx context.Context, profFile, workload, class string, opts core.Options) (*core.Result, error) {
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
		return core.RunContext(ctx, prog, opts, input)
	default:
		return nil, fmt.Errorf("need -profile or -workload")
	}
}

// ParseSlots parses a comma-separated list of scheduling slot counts. An
// empty list names none; an empty entry, as in "2,,8", is an error like
// any other entry that is not an integer.
func ParseSlots(list string) ([]int, error) {
	if list == "" {
		return nil, nil
	}
	var slots []int
	for _, s := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return nil, fmt.Errorf("bad slot count %q: %v", s, err)
		}
		slots = append(slots, n)
	}
	return slots, nil
}

// Telemetry bundles the observation flags every tool registers: the live
// HTTP endpoint, the progress heartbeat, the structured-log format, and
// the tracing artifacts (-run-report, -trace-out). Zero flags set means
// zero cost — Metrics returns nil and the run's sampler stays off the
// interpreter's poll path.
type Telemetry struct {
	Addr      string        // -telemetry-addr
	Progress  time.Duration // -progress
	LogFormat string        // -log-format
	RunReport string        // -run-report
	TraceOut  string        // -trace-out

	tool    string
	log     *slog.Logger
	metrics telemetry.Metrics
	srv     *telemetry.Server
	rec     *tracing.Recorder
	main    *tracing.Buf
	start   time.Time
}

// RegisterTelemetry registers the shared telemetry flags on fs and returns
// the handle the tool later Starts. tool names the command in log records.
func RegisterTelemetry(fs *flag.FlagSet, tool string) *Telemetry {
	t := &Telemetry{tool: tool, start: time.Now()}
	t.ensureRecorder()
	fs.StringVar(&t.Addr, "telemetry-addr", "",
		"serve /metrics, /debug/vars, /debug/flightrecorder and /debug/pprof on this address (e.g. :8080, or :0 for a free port)")
	fs.DurationVar(&t.Progress, "progress", 0,
		"log a progress heartbeat at this interval (0 = off)")
	fs.StringVar(&t.LogFormat, "log-format", "text",
		"run log format: text or json")
	fs.StringVar(&t.RunReport, "run-report", "",
		"write a JSON run report (span tree, telemetry, sink stats, flight dump) to this file")
	fs.StringVar(&t.TraceOut, "trace-out", "",
		"write a Chrome trace_event file (Perfetto/about://tracing loadable) to this file")
	return t
}

// ensureRecorder makes the handle usable even when constructed as a bare
// struct literal (tests do this); RegisterTelemetry calls it eagerly.
func (t *Telemetry) ensureRecorder() {
	if t.rec == nil {
		t.rec = tracing.NewRecorder()
		t.main = t.rec.Local("main")
	}
}

// Enabled reports whether any live-telemetry flag was set.
func (t *Telemetry) Enabled() bool { return t.Addr != "" || t.Progress > 0 }

// TracingEnabled reports whether a tracing artifact was requested; spans
// and poll samples are recorded only then.
func (t *Telemetry) TracingEnabled() bool { return t.RunReport != "" || t.TraceOut != "" }

// Metrics returns the live counter block to hand to core.Options.Telemetry,
// or nil when neither telemetry nor tracing was requested — the sampler
// then never runs. Tracing shares the block so span deltas, the run
// report, and /metrics all read the same counters.
func (t *Telemetry) Metrics() *telemetry.Metrics {
	if !t.Enabled() && !t.TracingEnabled() {
		return nil
	}
	return &t.metrics
}

// TraceBuf returns the main-goroutine span buffer for core.Options.Trace,
// or nil when no tracing artifact was requested. Command-level spans
// (StartSpan) and the run's core spans share this buffer, so the report's
// tree nests the run under the command phases.
func (t *Telemetry) TraceBuf() *tracing.Buf {
	t.ensureRecorder()
	if !t.TracingEnabled() {
		return nil
	}
	return t.main
}

// Recorder returns the tracing recorder when an artifact was requested
// (nil otherwise) — the experiments suite hands out one track per worker
// from it.
func (t *Telemetry) Recorder() *tracing.Recorder {
	t.ensureRecorder()
	if !t.TracingEnabled() {
		return nil
	}
	return t.rec
}

// NewTrack allocates a dedicated span buffer (e.g. for the event writer's
// encoder goroutine), or nil when tracing is off.
func (t *Telemetry) NewTrack(name string) *tracing.Buf {
	t.ensureRecorder()
	if !t.TracingEnabled() {
		return nil
	}
	return t.rec.Local(name)
}

// Logger returns the tool's structured run logger (stderr, -log-format).
// Phase spans and heartbeats log at Info, which is only emitted when a
// telemetry flag was set; otherwise the level is Warn so tools stay quiet
// by default.
func (t *Telemetry) Logger() (*slog.Logger, error) {
	if t.log != nil {
		return t.log, nil
	}
	level := slog.LevelWarn
	if t.Enabled() {
		level = slog.LevelInfo
	}
	log, err := telemetry.NewLogger(os.Stderr, t.LogFormat, level)
	if err != nil {
		return nil, err
	}
	t.log = log.With(slog.String("tool", t.tool))
	return t.log, nil
}

// StartSpan opens a phase span on the main tracing buffer, attached to the
// tool logger (the structured "phase" line) and to the live metrics when
// telemetry is enabled. Call after Start (or Logger) has validated the log
// format. Spans always measure; they reach a report only when a tracing
// artifact was requested.
func (t *Telemetry) StartSpan(name string) *tracing.Active {
	t.ensureRecorder()
	log, err := t.Logger()
	if err != nil {
		// An invalid -log-format is reported by Start; a span opened
		// anyway still measures, it just logs in the default format.
		log, _ = telemetry.NewLogger(os.Stderr, "text", slog.LevelWarn)
	}
	t.main.SetLogger(log)
	t.main.SetMetrics(t.Metrics())
	return t.main.Start(name)
}

// ServerAddr returns the address the telemetry endpoint is bound to, or
// "" before Start / when no endpoint was requested. Useful with
// -telemetry-addr :0, where the kernel picks the port.
func (t *Telemetry) ServerAddr() string {
	if t.srv == nil {
		return ""
	}
	return t.srv.Addr()
}

// Start brings up whatever the flags requested — the HTTP endpoint and the
// heartbeat — and returns the function that tears them down (the heartbeat
// emits a final beat first). With no telemetry flags set it validates the
// log format and returns a no-op.
func (t *Telemetry) Start() (stop func(), err error) {
	log, err := t.Logger()
	if err != nil {
		return nil, err
	}
	var srv *telemetry.Server
	if t.Addr != "" {
		srv, err = telemetry.Serve(t.Addr, &t.metrics, telemetry.Endpoint{
			Pattern: "/debug/flightrecorder",
			Handler: tracing.Flight().Handler(),
		})
		if err != nil {
			return nil, err
		}
		t.srv = srv
		log.Info("telemetry listening", slog.String("addr", srv.Addr()))
	}
	var hb *telemetry.Heartbeat
	if t.Progress > 0 {
		hb = telemetry.StartHeartbeat(log, &t.metrics, t.Progress)
	}
	return func() {
		if hb != nil {
			hb.Stop()
		}
		if srv != nil {
			_ = srv.Close()
		}
	}, nil
}

// Artifacts is the end-of-run state a command's body records for the run
// report: the event sink's writer stats, and salvage accounting when the
// tool read a damaged file. The report's telemetry needs no recording: a
// run leaves its final sample in Metrics' block, finished or not.
type Artifacts struct {
	Sink    *trace.WriterStats
	Salvage *trace.SalvageReport
}

// flightDumpMax bounds how many flight events a stderr dump prints; the
// full ring is always available in the run report and on the HTTP
// endpoint.
const flightDumpMax = 32

// finish writes the requested run artifacts and — for runs that ended in
// a budget kill, panic salvage, or a degraded/dead sink — dumps the tail
// of the flight recorder to the tool log. Main calls it once, with the
// command's error, after the body has closed its spans and writer
// goroutines, and ends the command with the error finish returns. A
// requested artifact that fails to write turns a command that would exit
// 0 (ok or budget) into a failed one: its write error becomes the
// command's error. An interrupted or failed command keeps its error, and
// the write error gets a stderr line of its own. The trace is written
// first, so the run report's outcome and error carry a trace that failed.
func (t *Telemetry) finish(a Artifacts, runErr error) error {
	err := runErr
	failed := func(name string, werr error) {
		werr = fmt.Errorf("writing %s: %w", name, werr)
		if ExitCode(err) == 0 {
			err = werr
		} else {
			fmt.Fprintf(os.Stderr, "%s: %v\n", t.tool, werr)
		}
	}
	if t.TraceOut != "" {
		if werr := safeio.WriteFile(t.TraceOut, func(w io.Writer) error {
			return tracing.WriteChrome(w, t.rec, tracing.Flight().Snapshot())
		}); werr != nil {
			failed("-trace-out", werr)
		}
	}
	outcome := core.Outcome(err)
	degraded := a.Sink != nil && (a.Sink.Degraded || a.Sink.Dropped > 0)
	if outcome != "ok" || degraded {
		t.dumpFlight(outcome, degraded)
	}
	if t.RunReport != "" {
		if werr := t.writeRunReport(a, err, outcome, degraded); werr != nil {
			failed("-run-report", werr)
		}
	}
	return err
}

// dumpFlight logs the flight recorder's newest events at Warn level (so
// the dump appears even when no telemetry flag raised the log level). A
// command that failed before anything was recorded, such as on a usage
// error, dumps nothing.
func (t *Telemetry) dumpFlight(outcome string, degraded bool) {
	events := tracing.Flight().Snapshot()
	total := len(events)
	if total == 0 {
		return
	}
	log, err := t.Logger()
	if err != nil {
		log, _ = telemetry.NewLogger(os.Stderr, "text", slog.LevelWarn)
	}
	if total > flightDumpMax {
		events = events[total-flightDumpMax:]
	}
	log.Warn("flight-recorder dump",
		slog.String("outcome", outcome),
		slog.Bool("sink_degraded", degraded),
		slog.Int("events", total),
		slog.Int("shown", len(events)),
		slog.Uint64("overwritten", tracing.Flight().Overwritten()))
	for _, e := range events {
		log.Warn("flight",
			slog.Uint64("seq", e.Seq),
			slog.Int64("t_ns", e.TimeNanos),
			slog.String("kind", e.Kind.String()),
			slog.String("name", e.Name),
			slog.Uint64("a", e.A),
			slog.Uint64("b", e.B))
	}
}

func (t *Telemetry) writeRunReport(a Artifacts, runErr error, outcome string, degraded bool) error {
	rep := struct {
		*tracing.Report
		Sink    *trace.WriterStats   `json:"sink,omitempty"`
		Salvage *trace.SalvageReport `json:"salvage,omitempty"`
	}{tracing.NewReport(t.tool, t.rec), a.Sink, a.Salvage}
	rep.Args = os.Args[1:]
	rep.StartNanos = t.start.UnixNano()
	rep.WallNanos = int64(time.Since(t.start))
	rep.Outcome = outcome
	if runErr != nil {
		rep.Error = runErr.Error()
	}
	if t.metrics.Load(telemetry.RunEpoch) > 0 {
		snap := t.metrics.Snapshot()
		rep.Telemetry = &snap
	}
	if outcome != "ok" || degraded {
		rep.Flight = tracing.Flight().Dump()
	}
	return safeio.WriteFile(t.RunReport, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	})
}
