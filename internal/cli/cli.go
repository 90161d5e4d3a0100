// Package cli factors the plumbing every sigil command shares: one
// signal-cancellation path, one exit-code convention, and the telemetry
// flag set (live endpoints, progress heartbeats, structured run logs,
// run-report and trace artifacts) registered the same way by every tool.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sigil/internal/core"
	"sigil/internal/safeio"
	"sigil/internal/telemetry"
	"sigil/internal/trace"
	"sigil/internal/tracing"
)

// Context returns a context cancelled on SIGINT or SIGTERM — the one
// cooperative-shutdown path all tools run under. The CancelFunc restores
// default signal handling, so a second signal kills the process outright.
func Context() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// ExitCode maps an error to the tools' shared exit convention: 0 for
// success, 130 for an interrupted run (the shell convention for SIGINT),
// 1 for everything else.
func ExitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, context.Canceled):
		return 130
	default:
		return 1
	}
}

// Fatal prints err prefixed with the tool name and exits with the
// conventional code. It never returns.
func Fatal(tool string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	if code := ExitCode(err); code != 0 {
		os.Exit(code)
	}
	os.Exit(1)
}

// Outcome classifies a run error for run reports and span attributes:
// "ok", "budget", "panic", "interrupted", or "error".
func Outcome(err error) string {
	var be *core.BudgetError
	var pe *core.PanicError
	switch {
	case err == nil:
		return "ok"
	case errors.As(err, &be):
		return "budget"
	case errors.As(err, &pe):
		return "panic"
	case errors.Is(err, context.Canceled):
		return "interrupted"
	default:
		return "error"
	}
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

// Artifacts is the end-of-run state a command hands to Finish: the final
// error (nil for success), the run's telemetry snapshot, the event sink's
// writer stats, and salvage accounting when the tool read a damaged file.
type Artifacts struct {
	Err       error
	Telemetry *telemetry.Snapshot
	Sink      *trace.WriterStats
	Salvage   *tracing.SalvageInfo
}

// flightDumpMax bounds how many flight events a stderr dump prints; the
// full ring is always available in the run report and on the HTTP
// endpoint.
const flightDumpMax = 32

// Finish writes the requested run artifacts and — for runs that ended in
// a budget kill, panic salvage, or a degraded/dead sink — dumps the tail
// of the flight recorder to the tool log. Call once, with the run's final
// error, after all spans are closed and writer goroutines have exited;
// failures to write an artifact are reported on stderr but do not change
// the run's outcome.
func (t *Telemetry) Finish(a Artifacts) {
	t.ensureRecorder()
	outcome := Outcome(a.Err)
	degraded := a.Sink != nil && (a.Sink.Degraded || a.Sink.Dropped > 0)
	if outcome != "ok" || degraded {
		t.dumpFlight(outcome, degraded)
	}
	if t.RunReport != "" {
		if err := t.writeRunReport(a, outcome, degraded); err != nil {
			fmt.Fprintf(os.Stderr, "%s: writing -run-report: %v\n", t.tool, err)
		}
	}
	if t.TraceOut != "" {
		if err := safeio.WriteFile(t.TraceOut, func(w io.Writer) error {
			return tracing.WriteChrome(w, t.rec, tracing.Flight().Snapshot())
		}); err != nil {
			fmt.Fprintf(os.Stderr, "%s: writing -trace-out: %v\n", t.tool, err)
		}
	}
}

// dumpFlight logs the flight recorder's newest events at Warn level (so
// the dump appears even when no telemetry flag raised the log level).
func (t *Telemetry) dumpFlight(outcome string, degraded bool) {
	log, err := t.Logger()
	if err != nil {
		log, _ = telemetry.NewLogger(os.Stderr, "text", slog.LevelWarn)
	}
	events := tracing.Flight().Snapshot()
	total := len(events)
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

func (t *Telemetry) writeRunReport(a Artifacts, outcome string, degraded bool) error {
	rep := tracing.NewReport(t.tool, t.rec)
	rep.Args = os.Args[1:]
	rep.StartNanos = t.start.UnixNano()
	rep.WallNanos = int64(time.Since(t.start))
	rep.Outcome = outcome
	if a.Err != nil {
		rep.Error = a.Err.Error()
	}
	rep.Telemetry = a.Telemetry
	if a.Sink != nil {
		rep.Sink = &tracing.SinkStats{
			Events:          a.Sink.Events,
			Frames:          a.Sink.Frames,
			QueueDepth:      a.Sink.QueueDepth,
			Stalls:          a.Sink.Stalls,
			RawBytes:        a.Sink.RawBytes,
			CompressedBytes: a.Sink.CompressedBytes,
			Dropped:         a.Sink.Dropped,
			Retries:         a.Sink.Retries,
			Degraded:        a.Sink.Degraded,
		}
	}
	rep.Salvage = a.Salvage
	if outcome != "ok" || degraded {
		rep.Flight = tracing.Flight().Dump()
	}
	return safeio.WriteFile(t.RunReport, rep.WriteJSON)
}
