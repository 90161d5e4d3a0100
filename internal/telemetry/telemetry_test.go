package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCounterTable checks the rows every output loops over: each has a
// unique JSON key, a unique Prometheus series (wall_nanos, set on the final
// snapshot only, has none), help text and a layer the text dump prints, and
// it is a counter exactly when its series is a _total.
func TestCounterTable(t *testing.T) {
	keys, series := map[string]bool{}, map[string]bool{}
	for c, d := range counters {
		if d.key == "" || keys[d.key] {
			t.Errorf("row %d: JSON key %q empty or repeated", c, d.key)
		}
		keys[d.key] = true
		if (d.prom == "") != (Counter(c) == WallNanos) || (d.prom != "" && series[d.prom]) {
			t.Errorf("%s: Prometheus series %q missing or repeated", d.key, d.prom)
		}
		series[d.prom] = true
		if d.help == "" || !slices.Contains(layers, d.layer) {
			t.Errorf("%s: help %q, layer %q", d.key, d.help, d.layer)
		}
		if (d.kind != "counter" && d.kind != "gauge") || (d.kind == "counter") != strings.HasSuffix(d.prom, "_total") {
			t.Errorf("%s: %s is a %q", d.key, d.prom, d.kind)
		}
	}
}

// TestSnapshotCopiesEveryCounter stores a distinct value in every counter
// and reads each back from Snapshot.
func TestSnapshotCopiesEveryCounter(t *testing.T) {
	want := sentinelSnapshot()
	var m Metrics
	for c, v := range want {
		m.Store(Counter(c), v)
	}
	if got := m.Snapshot(); got != want {
		t.Errorf("Snapshot() = %v, stored %v", got, want)
	}
}

// TestBeginRunResetsProgress: BeginRun zeroes every counter but the run
// epoch, which it advances, and stores the run's start and budgets.
func TestBeginRunResetsProgress(t *testing.T) {
	var m Metrics
	for c, v := range sentinelSnapshot() {
		m.Store(Counter(c), v)
	}
	start := time.Unix(1700000000, 0)
	m.BeginRun(start, 5000, 2*time.Second)

	want := Snapshot{
		RunEpoch:        m.Load(RunEpoch),
		RunStartNanos:   uint64(start.UnixNano()),
		BudgetInstrs:    5000,
		BudgetWallNanos: uint64(2 * time.Second),
	}
	if epoch := sentinelSnapshot()[RunEpoch] + 1; want[RunEpoch] != epoch {
		t.Errorf("run_epoch = %d, want %d", want[RunEpoch], epoch)
	}
	got := m.Snapshot()
	for c, d := range counters {
		if got[c] != want[c] {
			t.Errorf("after BeginRun %s = %d, want %d", d.key, got[c], want[c])
		}
	}
}

// TestTextListsEveryCounter parses the text dump back into key→value pairs:
// one line per layer, on which each of the layer's counters appears once
// with its value, for a zero and for a sentinel snapshot.
func TestTextListsEveryCounter(t *testing.T) {
	for _, s := range []Snapshot{{}, sentinelSnapshot()} {
		text := s.Text()
		lines := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
		if len(lines) != len(layers) {
			t.Errorf("%d lines for %d layers:\n%s", len(lines), len(layers), text)
		}
		got := map[string]string{}
		for _, line := range lines {
			layer, pairs, _ := strings.Cut(line, ":")
			f := strings.Fields(pairs)
			if len(f)%2 != 0 {
				t.Fatalf("line %q is not key value pairs", line)
			}
			for i := 0; i < len(f); i += 2 {
				k := layer + " " + f[i]
				if _, dup := got[k]; dup {
					t.Errorf("%s printed twice", k)
				}
				got[k] = f[i+1]
			}
		}
		if len(got) != len(counters) {
			t.Errorf("text lists %d counters, the table %d:\n%s", len(got), len(counters), text)
		}
		for c, d := range counters {
			if v, want := got[d.layer+" "+d.key], strconv.FormatUint(s[c], 10); v != want {
				t.Errorf("text has %s %s = %q, want %s:\n%s", d.layer, d.key, v, want, text)
			}
		}
	}
}

func TestSnapshotHelpers(t *testing.T) {
	s := Snapshot{Instrs: 1000, WallNanos: uint64(2 * time.Second)}
	if got := s.InstrsPerSec(time.Time{}); got != 500 {
		t.Errorf("InstrsPerSec = %g, want 500", got)
	}
	start := time.Unix(100, 0)
	s = Snapshot{Instrs: 300, RunStartNanos: uint64(start.UnixNano())}
	if got := s.InstrsPerSec(start.Add(time.Second)); got != 300 {
		t.Errorf("live InstrsPerSec = %g, want 300", got)
	}
	if got := (Snapshot{}).InstrsPerSec(time.Time{}); got != 0 {
		t.Errorf("zero snapshot InstrsPerSec = %g, want 0", got)
	}

	// Delta is reset-tolerant: below the base it reports the new value.
	base := Snapshot{Instrs: 500}
	if got := (Snapshot{Instrs: 800}).Delta(base, Instrs); got != 300 {
		t.Errorf("Delta = %d, want 300", got)
	}
	if got := (Snapshot{Instrs: 70}).Delta(base, Instrs); got != 70 {
		t.Errorf("Delta across a reset = %d, want 70", got)
	}
}

// TestPrometheusFormat checks every emitted line against the text
// exposition format: HELP/TYPE metadata per series and a parseable
// integer sample whose value round-trips from the snapshot.
func TestPrometheusFormat(t *testing.T) {
	m := &Metrics{}
	m.BeginRun(time.Unix(42, 0), 0, 0)
	m.Store(Instrs, 16384)
	m.Store(ShadowBytesResident, 1<<20)
	m.Store(Samples, 3)
	snap := m.Snapshot()

	var buf bytes.Buffer
	if err := snap.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	values := map[string]string{}
	types := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || parts[1] == "" {
				t.Errorf("HELP line without text: %q", line)
			}
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.SplitN(strings.TrimPrefix(line, "# TYPE "), " ", 2)
			if len(parts) != 2 || (parts[1] != "counter" && parts[1] != "gauge") {
				t.Fatalf("bad TYPE line: %q", line)
			}
			types[parts[0]] = parts[1]
		default:
			parts := strings.SplitN(line, " ", 2)
			if len(parts) != 2 {
				t.Fatalf("bad sample line: %q", line)
			}
			values[parts[0]] = parts[1]
		}
	}
	for name := range values {
		if _, ok := types[name]; !ok {
			t.Errorf("series %s has no TYPE metadata", name)
		}
	}
	for name, want := range map[string]uint64{
		"sigil_instructions_total":    16384,
		"sigil_shadow_bytes_resident": 1 << 20,
		"sigil_samples_total":         3,
		"sigil_run_epoch":             1,
	} {
		got, err := strconv.ParseUint(values[name], 10, 64)
		if err != nil || got != want {
			t.Errorf("%s = %q, want %d (%v)", name, values[name], want, err)
		}
	}
	if !strings.Contains(buf.String(), "sigil_run_start_seconds 42.000") {
		t.Errorf("missing run start series:\n%s", buf.String())
	}
}

func TestServeEndpoints(t *testing.T) {
	m := &Metrics{}
	m.BeginRun(time.Now(), 0, 0)
	m.Store(Instrs, 777)
	srv, err := Serve("127.0.0.1:0", m)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	get := func(path string) (int, string, http.Header) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body), resp.Header
	}

	code, body, hdr := get("/metrics")
	if code != http.StatusOK || !strings.Contains(body, "sigil_instructions_total 777") {
		t.Errorf("/metrics: %d\n%s", code, body)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics content type %q lacks exposition version", ct)
	}

	code, body, _ = get("/metrics.json")
	var snap map[string]uint64
	if code != http.StatusOK || json.Unmarshal([]byte(body), &snap) != nil || snap["instrs"] != 777 {
		t.Errorf("/metrics.json: %d\n%s", code, body)
	}

	code, body, _ = get("/debug/vars")
	var vars map[string]json.RawMessage
	if code != http.StatusOK || json.Unmarshal([]byte(body), &vars) != nil {
		t.Fatalf("/debug/vars: %d\n%s", code, body)
	}
	if _, ok := vars["sigil"]; !ok {
		t.Errorf("/debug/vars missing sigil var: %s", body)
	}

	if code, _, _ = get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline: %d", code)
	}
	if code, body, _ = get("/"); code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Errorf("index: %d\n%s", code, body)
	}
	if code, _, _ = get("/nope"); code != http.StatusNotFound {
		t.Errorf("unknown path: %d, want 404", code)
	}
}

// TestServeExtraEndpoints covers the injection seam higher layers use to
// mount routes this package cannot import (e.g. /debug/flightrecorder).
func TestServeExtraEndpoints(t *testing.T) {
	m := &Metrics{}
	srv, err := Serve("127.0.0.1:0", m, Endpoint{
		Pattern: "/debug/flightrecorder",
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, `{"events":[]}`)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/debug/flightrecorder")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "events") {
		t.Errorf("/debug/flightrecorder: %d %s", resp.StatusCode, body)
	}
}

// TestServeTwice covers the expvar publish-once path: a second server (a
// second run in the same process) must not panic and must serve the newer
// metrics block.
func TestServeTwice(t *testing.T) {
	m1 := &Metrics{}
	srv1, err := Serve("127.0.0.1:0", m1)
	if err != nil {
		t.Fatal(err)
	}
	srv1.Close()

	m2 := &Metrics{}
	m2.Store(Instrs, 42)
	srv2, err := Serve("127.0.0.1:0", m2)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	resp, err := http.Get("http://" + srv2.Addr() + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"instrs": 42`) && !strings.Contains(string(body), `"instrs":42`) {
		t.Errorf("expvar serves stale metrics: %s", body)
	}
}

func TestHeartbeatFires(t *testing.T) {
	var buf syncBuffer
	log := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelInfo}))
	m := &Metrics{}
	m.BeginRun(time.Now(), 1000, time.Minute)
	m.Store(Instrs, 100)

	h := StartHeartbeat(log, m, time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for buf.Count("heartbeat") == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	h.Stop()

	out := buf.String()
	if !strings.Contains(out, `"msg":"heartbeat"`) {
		t.Fatalf("no heartbeat logged:\n%s", out)
	}
	if !strings.Contains(out, `"instrs":100`) || !strings.Contains(out, `"budget_instrs_left":900`) {
		t.Errorf("heartbeat missing progress fields:\n%s", out)
	}
	if !strings.Contains(out, `"final":true`) {
		t.Errorf("Stop did not emit a final beat:\n%s", out)
	}
}

func TestNewLoggerFormats(t *testing.T) {
	var buf bytes.Buffer
	for _, format := range []string{"", "text", "json"} {
		log, err := NewLogger(&buf, format, slog.LevelInfo)
		if err != nil || log == nil {
			t.Errorf("NewLogger(%q): %v", format, err)
		}
	}
	if _, err := NewLogger(&buf, "yaml", slog.LevelInfo); err == nil {
		t.Error("NewLogger accepted an unknown format")
	}

	buf.Reset()
	log, _ := NewLogger(&buf, "json", slog.LevelInfo)
	log.Info("x", slog.Int("v", 1))
	var rec map[string]any
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &rec); err != nil {
		t.Errorf("json log line does not parse: %v\n%s", err, buf.String())
	}
}

// syncBuffer is a mutex-guarded buffer for handlers written to from the
// heartbeat goroutine while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func (b *syncBuffer) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf.Reset()
}

func (b *syncBuffer) Count(substr string) int {
	return strings.Count(b.String(), fmt.Sprintf("%q", substr))
}
