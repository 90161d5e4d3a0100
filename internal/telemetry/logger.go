package telemetry

import (
	"fmt"
	"io"
	"log/slog"
)

// NewLogger builds the run logger behind the -log-format flag: "text"
// (default) or "json", both via log/slog so phase spans and heartbeats
// carry structured fields either way.
//
// The phase spans themselves live in internal/tracing now: a tracing Buf
// with this logger attached emits the same structured "phase" lines the
// old telemetry span system produced.
func NewLogger(w io.Writer, format string, level slog.Leveler) (*slog.Logger, error) {
	opts := &slog.HandlerOptions{Level: level}
	switch format {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("telemetry: unknown log format %q (want text or json)", format)
	}
}
