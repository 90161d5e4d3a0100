package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"sigil/internal/core"
	"sigil/internal/telemetry"
)

func TestExitCode(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, 0},
		{context.Canceled, 130},
		{fmt.Errorf("wrapped: %w", context.Canceled), 130},
		{errors.New("boom"), 1},
		{context.DeadlineExceeded, 1},
		{&core.BudgetError{Resource: "instructions"}, 0},
		{fmt.Errorf("wrapped: %w", &core.BudgetError{}), 0},
	}
	for _, c := range cases {
		if got := ExitCode(c.err); got != c.want {
			t.Errorf("ExitCode(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

func TestParseSlots(t *testing.T) {
	cases := []struct {
		list string
		want []int
		err  bool
	}{
		{"", nil, false},
		{"2,4,8", []int{2, 4, 8}, false},
		{" 2, 4 ", []int{2, 4}, false},
		{"2,,8", nil, true},
		{"2,4,", nil, true},
		{" ", nil, true},
		{"two", nil, true},
	}
	for _, c := range cases {
		got, err := ParseSlots(c.list)
		if (err != nil) != c.err || !slices.Equal(got, c.want) {
			t.Errorf("ParseSlots(%q) = %v, %v; want %v, error %v", c.list, got, err, c.want, c.err)
		}
	}
}

func TestLoadResultNeedsOneInput(t *testing.T) {
	ctx := context.Background()
	if _, err := LoadResult(ctx, "", "", "simsmall", core.Options{}); err == nil {
		t.Error("no input accepted")
	}
	if _, err := LoadResult(ctx, "p.prof", "dedup", "simsmall", core.Options{}); err == nil {
		t.Error("both a profile and a workload accepted")
	}
	res, err := LoadResult(ctx, "", "blackscholes", "simsmall", core.Options{})
	if err != nil || res == nil {
		t.Fatalf("workload run: %v", err)
	}
}

func TestRegisterTelemetryFlags(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	tel := RegisterTelemetry(fs, "x")
	if err := fs.Parse([]string{"-telemetry-addr", ":0", "-progress", "250ms", "-log-format", "json"}); err != nil {
		t.Fatal(err)
	}
	if tel.Addr != ":0" || tel.Progress != 250*time.Millisecond || tel.LogFormat != "json" {
		t.Errorf("flags not bound: %+v", tel)
	}
	if !tel.Enabled() {
		t.Error("Enabled() = false with telemetry flags set")
	}
	if tel.Metrics() == nil {
		t.Error("Metrics() = nil with telemetry enabled")
	}
}

func TestTelemetryDisabledByDefault(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	tel := RegisterTelemetry(fs, "x")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if tel.Enabled() {
		t.Error("Enabled() = true with no flags")
	}
	// nil Metrics keeps the sampler off the interpreter poll path entirely.
	if tel.Metrics() != nil {
		t.Error("Metrics() != nil with telemetry disabled")
	}
	if tel.ServerAddr() != "" {
		t.Error("ServerAddr() non-empty before Start")
	}
	stop, err := tel.Start()
	if err != nil {
		t.Fatalf("Start with no flags: %v", err)
	}
	stop()
}

func TestStartRejectsBadLogFormat(t *testing.T) {
	tel := &Telemetry{LogFormat: "yaml"}
	if _, err := tel.Start(); err == nil {
		t.Error("Start accepted -log-format yaml")
	}
}

func TestStartSpanSurvivesBadFormat(t *testing.T) {
	tel := &Telemetry{LogFormat: "yaml"}
	sp := tel.StartSpan("x")
	if sp == nil {
		t.Fatal("StartSpan returned nil on bad format")
	}
	sp.End()
}

// TestServedMetricsReflectLiveBlock wires the full path: flags -> Start ->
// HTTP scrape sees the same counter block Metrics() hands the run.
func TestServedMetricsReflectLiveBlock(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	tel := RegisterTelemetry(fs, "x")
	if err := fs.Parse([]string{"-telemetry-addr", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
	tel.Metrics().Store(telemetry.Instrs, 4242)
	stop, err := tel.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	addr := tel.ServerAddr()
	if addr == "" {
		t.Fatal("no bound address after Start")
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := "sigil_instructions_total 4242"; !strings.Contains(string(body), want) {
		t.Errorf("/metrics missing %q:\n%s", want, body)
	}
}
