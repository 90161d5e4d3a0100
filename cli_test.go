package sigil

// End-to-end CLI integration: build the command binaries once and drive the
// profile → post-process pipeline through real files, the way a user would.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"sigil/internal/core"
	"sigil/internal/trace"
)

func buildCmd(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func runCmd(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	sigilBin := buildCmd(t, dir, "sigil")
	partBin := buildCmd(t, dir, "sigil-part")
	reuseBin := buildCmd(t, dir, "sigil-reuse")
	critBin := buildCmd(t, dir, "sigil-critpath")

	// List workloads.
	if out := runCmd(t, sigilBin, "-list"); !strings.Contains(out, "streamcluster") {
		t.Errorf("-list missing workloads:\n%s", out)
	}

	// Profile canneal with reuse tracking; save profile + events.
	prof := filepath.Join(dir, "canneal.profile")
	evt := filepath.Join(dir, "canneal.evt")
	out := runCmd(t, sigilBin, "-workload", "canneal", "-reuse",
		"-o", prof, "-events", evt, "-top", "5")
	if !strings.Contains(out, "netlist::swap_locations") && !strings.Contains(out, "mul") {
		t.Errorf("summary missing canneal functions:\n%s", out)
	}

	// Partition from the saved profile.
	out = runCmd(t, partBin, "-profile", prof, "-top", "3")
	if !strings.Contains(out, "S(breakeven)") || !strings.Contains(out, "coverage") {
		t.Errorf("partition output malformed:\n%s", out)
	}

	// Reuse analysis from the same file.
	out = runCmd(t, reuseBin, "-profile", prof, "-fn", "mul")
	if !strings.Contains(out, "zero re-use") || !strings.Contains(out, "mul") {
		t.Errorf("reuse output malformed:\n%s", out)
	}

	// Critical path from the saved event file, with scheduling.
	out = runCmd(t, critBin, "-events", evt, "-slots", "2,4")
	if !strings.Contains(out, "max parallelism") || !strings.Contains(out, "4 slots") &&
		!strings.Contains(out, "4     ") {
		t.Errorf("critpath output malformed:\n%s", out)
	}

	// Assemble-and-run path: write a .sasm file and profile it.
	asm := filepath.Join(dir, "toy.sasm")
	src := `
.reserve buf 32
func main {
    movi r1, buf
    movi r2, 7
    store8 r1, 0, r2
    call reader
    halt
}
func reader {
    load8 r3, r1, 0
    ret
}
`
	if err := os.WriteFile(asm, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out = runCmd(t, sigilBin, "-asm", asm)
	if !strings.Contains(out, "reader") {
		t.Errorf("asm profile missing function:\n%s", out)
	}
}

func TestCLIReportAndExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	reportBin := buildCmd(t, dir, "sigil-report")
	expBin := buildCmd(t, dir, "experiments")

	md := filepath.Join(dir, "report.md")
	runCmd(t, reportBin, "-workload", "vips", "-o", md, "-slots", "2")
	data, err := os.ReadFile(md)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# Sigil analysis: vips", "conv_gen", "## Data re-use"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("report missing %q", want)
		}
	}

	if out := runCmd(t, expBin, "-only", "table1"); !strings.Contains(out, "Shadow object contents") {
		t.Errorf("experiments table1 malformed:\n%s", out)
	}
	if out := runCmd(t, expBin, "-only", "memlimit"); !strings.Contains(out, "relative error") {
		t.Errorf("experiments memlimit malformed:\n%s", out)
	}
}

// TestCLITelemetry drives the observability surface end to end: a profiled
// run with -progress emits JSON heartbeats and phase spans on stderr,
// -telemetry-dump prints a final snapshot whose instruction count matches
// the summary the profile itself reports, and the run report and Perfetto
// trace it writes carry the same counters (checkRunArtifacts).
// TestCLITopZero: -top 0 prints every row, in every command that takes it.
func TestCLITopZero(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	for _, cmd := range []string{"sigil", "sigil-part", "sigil-reuse", "sigil-report"} {
		bin := buildCmd(t, dir, cmd)
		all := runCmd(t, bin, "-workload", "canneal", "-top", "1000")
		if got := runCmd(t, bin, "-workload", "canneal", "-top", "0"); got != all {
			t.Errorf("%s -top 0 differs from -top 1000:\n%s\n---\n%s", cmd, got, all)
		}
	}
}

func TestCLITelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	sigilBin := buildCmd(t, dir, "sigil")

	evt := filepath.Join(dir, "fft.evt")
	report := filepath.Join(dir, "fft.report.json")
	perfetto := filepath.Join(dir, "fft.trace.json")
	cmd := exec.Command(sigilBin, "-workload", "fft",
		"-progress", "5ms", "-log-format", "json", "-telemetry-dump",
		"-events", evt, "-run-report", report, "-trace-out", perfetto)
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("telemetry run failed: %v\nstderr:\n%s", err, stderr.String())
	}

	logs := stderr.String()
	if !strings.Contains(logs, `"msg":"heartbeat"`) || !strings.Contains(logs, `"instrs_per_sec"`) {
		t.Errorf("no heartbeat on stderr:\n%s", logs)
	}
	for _, phase := range []string{`"name":"assemble"`, `"name":"run"`, `"name":"postprocess"`} {
		if !strings.Contains(logs, phase) {
			t.Errorf("missing phase span %s:\n%s", phase, logs)
		}
	}

	// The dump's instruction count must equal the profile's own total.
	out := stdout.String()
	summary := regexp.MustCompile(`instructions: (\d+)`).FindStringSubmatch(out)
	dump := regexp.MustCompile(`instrs (\d+)`).FindStringSubmatch(out)
	if summary == nil || dump == nil {
		t.Fatalf("summary/dump instruction lines not found:\n%s", out)
	}
	if summary[1] != dump[1] {
		t.Errorf("telemetry dump instrs %s != profile instrs %s", dump[1], summary[1])
	}
	checkRunArtifacts(t, logs, evt, report, perfetto)
}

// reportSpan is the part of a run-report span the artifact checks read.
type reportSpan struct {
	Name   string                       `json:"name"`
	Deltas map[string]map[string]uint64 `json:"deltas"`
}

// checkRunArtifacts reads what a traced sigil run wrote: the run span's
// deltas in the run report equal its telemetry section and include
// counters tracing never named; the same deltas reach the run's phase log
// line and its Perfetto span args; and the sink section counts the records
// the event file holds.
func checkRunArtifacts(t *testing.T, logs, evt, report, perfetto string) {
	t.Helper()
	var rep struct {
		Spans     []reportSpan      `json:"spans"`
		Telemetry map[string]uint64 `json:"telemetry"`
		Sink      *struct {
			Events uint64 `json:"events"`
		} `json:"sink"`
	}
	readJSON(t, report, &rep)
	var run *reportSpan // a root: sigil closes the assemble span first
	for i := range rep.Spans {
		if rep.Spans[i].Name == "run" {
			run = &rep.Spans[i]
		}
	}
	if run == nil {
		t.Fatalf("run report has no run span: %+v", rep.Spans)
	}
	for layer, keys := range run.Deltas {
		for k, v := range keys {
			if v != rep.Telemetry[k] {
				t.Errorf("run span delta %s.%s = %d, telemetry %d", layer, k, v, rep.Telemetry[k])
			}
		}
	}
	for _, c := range [][2]string{{"vm", "instrs"}, {"callgrind", "cache_l1_misses"}, {"sigil", "classify_spans"}, {"events", "events_emitted"}} {
		if run.Deltas[c[0]][c[1]] == 0 {
			t.Errorf("run span deltas lack %s.%s: %v", c[0], c[1], run.Deltas)
		}
	}

	f, err := os.Open(evt)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.ReadAll(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if records := uint64(len(tr.Events) + len(tr.Contexts)); rep.Sink == nil || rep.Sink.Events != records {
		t.Errorf("run report sink %+v, event file holds %d records", rep.Sink, records)
	}

	var phase *reportSpan
	for _, line := range strings.Split(logs, "\n") {
		var rec struct {
			Msg string `json:"msg"`
			reportSpan
		}
		if json.Unmarshal([]byte(line), &rec) == nil && rec.Msg == "phase" && rec.Name == "run" {
			phase = &rec.reportSpan
		}
	}
	if phase == nil || !reflect.DeepEqual(phase.Deltas, run.Deltas) {
		t.Errorf("run phase log line deltas %v, run report %v", phase, run.Deltas)
	}

	var chrome struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	readJSON(t, perfetto, &chrome)
	found := false
	for _, e := range chrome.TraceEvents {
		if e.Ph != "X" || e.Name != "run" {
			continue
		}
		found = true
		for layer, k := range map[string]string{"vm": "instrs", "callgrind": "cache_l1_misses"} {
			if want := run.Deltas[layer][k]; e.Args[k] != float64(want) {
				t.Errorf("Perfetto run span %s = %v, run report %d", k, e.Args[k], want)
			}
		}
	}
	if !found {
		t.Error("Perfetto trace has no run span")
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// interrupt starts bin with args, sends it SIGINT after delay and waits for
// it. It reports false when the run finished before the signal landed, and
// fails the test unless an interrupted run exited 130 and said so on
// stderr.
func interrupt(t *testing.T, delay time.Duration, bin string, args ...string) bool {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(delay)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	if err == nil {
		return false
	}
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 130 {
		t.Fatalf("interrupted run: %v, want exit 130\nstderr:\n%s", err, stderr.String())
	}
	if msg := stderr.String(); !strings.Contains(msg, "interrupted") &&
		!strings.Contains(msg, "context canceled") {
		t.Errorf("stderr does not explain the interrupt:\n%s", msg)
	}
	return true
}

// TestCLISigintContract pins the interrupt behaviour on its own: a run that
// takes a SIGINT must exit 130, say so on stderr, and leave each output
// path either absent or footer-complete — never truncated. Signal delivery
// races the run, so the test ladders the pre-signal delay and retries until
// the interrupt lands mid-run.
func TestCLISigintContract(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	sigilBin := buildCmd(t, dir, "sigil")

	for attempt := 0; attempt < 5; attempt++ {
		prof := filepath.Join(dir, fmt.Sprintf("int%d.profile", attempt))
		evt := filepath.Join(dir, fmt.Sprintf("int%d.evt", attempt))
		if !interrupt(t, time.Duration(100*(attempt+1))*time.Millisecond, sigilBin,
			"-workload", "canneal", "-class", "simlarge", "-o", prof, "-events", evt) {
			continue // the run beat the signal; give the next attempt longer
		}
		if _, statErr := os.Stat(prof); statErr == nil {
			if _, err := core.ReadProfileFile(prof); err != nil {
				t.Errorf("interrupted profile exists but is incomplete: %v", err)
			}
		}
		if f, statErr := os.Open(evt); statErr == nil {
			_, rep, err := trace.Salvage(f)
			f.Close()
			if err != nil || !rep.Complete {
				t.Errorf("interrupted event file exists but lacks its footer: %v %v", err, rep)
			}
		}
		return
	}
	t.Skip("every attempt finished before the signal landed")
}

// TestCLISigintReportTelemetry interrupts a command that profiles a
// -workload before it post-processes the run: its run report must still
// carry the partial run's telemetry.
func TestCLISigintReportTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	critBin := buildCmd(t, dir, "sigil-critpath")

	for attempt := 0; attempt < 5; attempt++ {
		report := filepath.Join(dir, fmt.Sprintf("int%d.report.json", attempt))
		if !interrupt(t, time.Duration(100*(attempt+1))*time.Millisecond, critBin,
			"-workload", "canneal", "-class", "simlarge", "-run-report", report) {
			continue
		}
		var rep struct {
			Outcome   string            `json:"outcome"`
			Telemetry map[string]uint64 `json:"telemetry"`
		}
		readJSON(t, report, &rep)
		if rep.Outcome != "interrupted" {
			t.Errorf("run report outcome %q, want interrupted", rep.Outcome)
		}
		if rep.Telemetry["instrs"] == 0 || rep.Telemetry["wall_nanos"] == 0 {
			t.Errorf("run report telemetry %v, want the partial run's instrs and wall_nanos", rep.Telemetry)
		}
		return
	}
	t.Skip("every attempt finished before the signal landed")
}

// TestCLIFaultTolerance drives the robustness surface end to end: resource
// budgets leave complete partial outputs with exit 0, SIGINT leaves either
// no output file or a complete footer-verified one with exit 130, and a
// truncated event file is recoverable with -salvage.
func TestCLIFaultTolerance(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	sigilBin := buildCmd(t, dir, "sigil")
	critBin := buildCmd(t, dir, "sigil-critpath")

	// A budget-bounded run is a success: partial profile + events, exit 0.
	prof := filepath.Join(dir, "budget.profile")
	evt := filepath.Join(dir, "budget.evt")
	out := runCmd(t, sigilBin, "-workload", "canneal", "-maxinstrs", "50000",
		"-o", prof, "-events", evt)
	if !strings.Contains(out, "run ended early") || !strings.Contains(out, "instructions budget") {
		t.Errorf("budget run did not report early end:\n%s", out)
	}
	res, err := core.ReadProfileFile(prof)
	if err != nil {
		t.Fatalf("partial profile unreadable: %v", err)
	}
	if res.Profile.TotalInstrs == 0 {
		t.Error("partial profile shows no progress")
	}
	f, err := os.Open(evt)
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := trace.Salvage(f)
	f.Close()
	if err != nil || !rep.Complete {
		t.Errorf("budget-run event file not footer-complete: %v %v", err, rep)
	}

	// The hard chunk budget ends the run too; -memlimit (FIFO eviction)
	// composes with it and stays a normal, complete run on its own.
	out = runCmd(t, sigilBin, "-workload", "dedup", "-chunkbudget", "4")
	if !strings.Contains(out, "shadow-chunks budget") {
		t.Errorf("chunk-budget run did not report the budget:\n%s", out)
	}
	if out = runCmd(t, sigilBin, "-workload", "dedup", "-memlimit", "8"); strings.Contains(out, "budget") {
		t.Errorf("-memlimit alone must not trip a budget:\n%s", out)
	}

	// A wall-clock budget behaves the same way.
	out = runCmd(t, sigilBin, "-workload", "canneal", "-class", "simlarge",
		"-timeout", "5ms", "-o", prof)
	if !strings.Contains(out, "wall-clock budget") {
		t.Errorf("timeout run did not report the wall budget:\n%s", out)
	}

	// SIGINT mid-run: exit 130 and salvaged outputs (or none at all).
	prof2 := filepath.Join(dir, "int.profile")
	evt2 := filepath.Join(dir, "int.evt")
	cmd := exec.Command(sigilBin, "-workload", "canneal", "-class", "simlarge",
		"-o", prof2, "-events", evt2)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err = cmd.Wait()
	var exitErr *exec.ExitError
	if err == nil {
		t.Log("run finished before the signal landed; skipping exit-code check")
	} else if !errors.As(err, &exitErr) || exitErr.ExitCode() != 130 {
		t.Fatalf("interrupted run: %v, want exit 130", err)
	}
	if _, statErr := os.Stat(prof2); statErr == nil {
		if _, err := core.ReadProfileFile(prof2); err != nil {
			t.Errorf("interrupted profile exists but is incomplete: %v", err)
		}
	}
	if f, statErr := os.Open(evt2); statErr == nil {
		_, rep, err := trace.Salvage(f)
		f.Close()
		if err != nil || !rep.Complete {
			t.Errorf("interrupted event file exists but lacks its footer: %v %v", err, rep)
		}
	}

	// Truncate the complete event file: plain read must fail and point at
	// -salvage; -salvage must recover the prefix.
	data, err := os.ReadFile(evt)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(dir, "cut.evt")
	if err := os.WriteFile(cut, data[:len(data)*3/4], 0o644); err != nil {
		t.Fatal(err)
	}
	rawOut, err := exec.Command(critBin, "-events", cut).CombinedOutput()
	if err == nil {
		t.Errorf("truncated event file accepted:\n%s", rawOut)
	}
	if !strings.Contains(string(rawOut), "-salvage") {
		t.Errorf("error does not mention -salvage:\n%s", rawOut)
	}
	out = runCmd(t, critBin, "-events", cut, "-salvage")
	if !strings.Contains(out, "recovered") || !strings.Contains(out, "max parallelism") {
		t.Errorf("salvage run malformed:\n%s", out)
	}

	// The run report of a salvage run carries the salvage pass's own
	// accounting. The budget run's file is one frame, so its cut recovers
	// nothing; cut a complete multi-frame file instead.
	full := filepath.Join(dir, "full.evt")
	runCmd(t, sigilBin, "-workload", "canneal", "-events", full)
	if data, err = os.ReadFile(full); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cut, data[:len(data)*3/4], 0o644); err != nil {
		t.Fatal(err)
	}
	salvageReport := filepath.Join(dir, "salvage.report.json")
	out = runCmd(t, critBin, "-events", cut, "-salvage", "-run-report", salvageReport)
	recovered := regexp.MustCompile(`recovered (\d+) of`).FindStringSubmatch(out)
	if recovered == nil || recovered[1] == "0" {
		t.Fatalf("salvage of a cut multi-frame file recovered nothing:\n%s", out)
	}
	var salvaged struct {
		Salvage *struct {
			Complete   bool  `json:"complete"`
			Truncated  bool  `json:"truncated"`
			Events     int   `json:"events"`
			BytesValid int64 `json:"bytes_valid"`
			BytesTotal int64 `json:"bytes_total"`
		} `json:"salvage"`
	}
	readJSON(t, salvageReport, &salvaged)
	sv := salvaged.Salvage
	if sv == nil || sv.Complete || !sv.Truncated || fmt.Sprint(sv.Events) != recovered[1] ||
		sv.BytesValid <= 0 || sv.BytesValid > sv.BytesTotal {
		t.Errorf("run report salvage %+v, want truncated, incomplete, %s events, 0 < bytes_valid <= bytes_total", sv, recovered[1])
	}
}

// TestCLIExitPath drives one failing invocation of every command but
// sigil-lint, each with -run-report: the command exits 1, its report reads
// outcome "error", and the report's error is the text of the one stderr
// line the command prints. sigil still writes the profile when the event
// file fails, a negative -top is an error rather than a panic, and a
// failing command still logs its final heartbeat. A run that would exit 0
// (ok, or ended by a budget) exits 1 when a requested artifact fails to
// write: an unwritable -run-report is the one stderr line, and an
// unwritable -trace-out is the error the report records.
func TestCLIExitPath(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	bins := map[string]string{}
	for _, name := range []string{"sigil", "sigil-part", "sigil-reuse", "sigil-critpath", "sigil-report", "experiments"} {
		bins[name] = buildCmd(t, dir, name)
	}
	missing := filepath.Join(dir, "missing")
	degradedProf := filepath.Join(dir, "degraded.prof")
	deadProf := filepath.Join(dir, "dead.prof")
	unwritable := filepath.Join(missing, "r.json")
	cases := []struct {
		name   string
		tool   string
		args   []string
		prof   string // a profile the command must write all the same
		report string // an unwritable -run-report, in place of a readable one
	}{
		{"missing output dir", "sigil", []string{"-workload", "dedup", "-o", filepath.Join(missing, "p.prof")}, "", ""},
		{"dead degraded sink", "sigil", []string{"-workload", "dedup", "-events", "/dev/full", "-events-degraded", "-o", degradedProf}, degradedProf, ""},
		{"dead sink", "sigil", []string{"-workload", "dedup", "-events", "/dev/full", "-o", deadProf}, deadProf, ""},
		{"missing profile", "sigil-part", []string{"-profile", filepath.Join(dir, "missing.prof"), "-progress", "1h"}, "", ""},
		{"negative top", "sigil-part", []string{"-workload", "fft", "-top", "-1"}, "", ""},
		{"missing profile", "sigil-reuse", []string{"-profile", filepath.Join(dir, "missing.prof")}, "", ""},
		{"missing event file", "sigil-critpath", []string{"-events", filepath.Join(dir, "missing.evt")}, "", ""},
		{"negative top", "sigil-report", []string{"-workload", "fft", "-top", "-1"}, "", ""},
		{"unknown experiment", "experiments", []string{"-only", "nosuch"}, "", ""},
		{"unwritable report", "sigil", []string{"-workload", "fft"}, "", unwritable},
		{"unwritable report after a budget", "sigil", []string{"-workload", "fft", "-maxinstrs", "50000"}, "", unwritable},
		{"unwritable trace", "sigil", []string{"-workload", "fft", "-trace-out", filepath.Join(missing, "t.json")}, "", ""},
	}
	for i, c := range cases {
		t.Run(c.tool+"/"+c.name, func(t *testing.T) {
			if slices.Contains(c.args, "/dev/full") {
				if _, err := os.Stat("/dev/full"); err != nil {
					t.Skip("no /dev/full")
				}
			}
			report := filepath.Join(dir, fmt.Sprintf("%d.report.json", i))
			if c.report != "" {
				report = c.report
			}
			cmd := exec.Command(bins[c.tool], append(c.args, "-run-report", report)...)
			var stderr strings.Builder
			cmd.Stderr = &stderr
			err := cmd.Run()
			var exitErr *exec.ExitError
			if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
				t.Fatalf("%v, want exit 1\nstderr:\n%s", err, stderr.String())
			}
			var lines []string
			for _, line := range strings.Split(stderr.String(), "\n") {
				if strings.HasPrefix(line, c.tool+": ") {
					lines = append(lines, line)
				}
			}
			if c.report != "" {
				if len(lines) != 1 || !strings.HasPrefix(lines[0], c.tool+": writing -run-report: ") {
					t.Errorf("stderr lines %q, want the one -run-report write error", lines)
				}
				return
			}
			var rep struct {
				Outcome string `json:"outcome"`
				Error   string `json:"error"`
			}
			readJSON(t, report, &rep)
			if rep.Outcome != "error" || rep.Error == "" {
				t.Errorf("run report outcome %q, error %q; want outcome error", rep.Outcome, rep.Error)
			}
			if want := c.tool + ": " + rep.Error; len(lines) != 1 || lines[0] != want {
				t.Errorf("stderr lines %q, want the one line %q", lines, want)
			}
			if slices.Contains(c.args, "-trace-out") && !strings.HasPrefix(rep.Error, "writing -trace-out: ") {
				t.Errorf("run report error %q, want the -trace-out write error", rep.Error)
			}
			if strings.Contains(stderr.String(), "panic:") {
				t.Errorf("stderr holds a panic:\n%s", stderr.String())
			}
			if slices.Contains(c.args, "-progress") && !strings.Contains(stderr.String(), "final=true") {
				t.Errorf("no final heartbeat on stderr:\n%s", stderr.String())
			}
			if c.prof != "" {
				if _, err := core.ReadProfileFile(c.prof); err != nil {
					t.Errorf("profile not written beside the failed event file: %v", err)
				}
			}
		})
	}
}

// TestCLILint drives the sigil-lint binary: sorted analyzer listing,
// unknown-name hardening, and the -vm static program verifier in both text
// and JSON modes.
func TestCLILint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	lintBin := buildCmd(t, dir, "sigil-lint")

	// -list prints every analyzer, one per line, sorted by name.
	out := runCmd(t, lintBin, "-list")
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	var names []string
	for _, l := range lines {
		fields := strings.Fields(l)
		if len(fields) < 2 {
			t.Fatalf("-list line without a doc: %q", l)
		}
		names = append(names, fields[0])
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("-list not sorted: %v", names)
	}
	for _, want := range []string{"hotalloc", "goleak", "panicfree"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("-list missing %s:\n%s", want, out)
		}
	}

	// Unknown analyzer names are a usage error: exit 2.
	rawOut, err := exec.Command(lintBin, "-run", "bogus").CombinedOutput()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 2 {
		t.Fatalf("-run bogus: %v, want exit 2\n%s", err, rawOut)
	}
	if !strings.Contains(string(rawOut), `unknown analyzer "bogus"`) {
		t.Errorf("-run bogus output:\n%s", rawOut)
	}

	// -vm: a malformed program yields typed diagnostics and exit 1; JSON
	// mode carries the class/func/pc fields for CI annotation.
	bad := filepath.Join(dir, "bad.sasm")
	if err := os.WriteFile(bad, []byte("func main {\n movi r1, 16\n load8 r2, r1, 0\n}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rawOut, err = exec.Command(lintBin, "-vm", bad).CombinedOutput()
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
		t.Fatalf("-vm bad.sasm: %v, want exit 1\n%s", err, rawOut)
	}
	for _, want := range []string{"vm-fall-off", "vm-memory", "main+1 (load)"} {
		if !strings.Contains(string(rawOut), want) {
			t.Errorf("-vm output missing %q:\n%s", want, rawOut)
		}
	}
	jsonOut, err := exec.Command(lintBin, "-vm", "-json", bad).Output()
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
		t.Fatalf("-vm -json: %v, want exit 1", err)
	}
	var diags []map[string]any
	if err := json.Unmarshal(jsonOut, &diags); err != nil {
		t.Fatalf("-vm -json output is not JSON: %v\n%s", err, jsonOut)
	}
	if len(diags) == 0 || diags[0]["class"] == "" || diags[0]["func"] != "main" {
		t.Errorf("-vm -json diagnostics malformed: %v", diags)
	}

	// A well-formed program is clean: exit 0, no output in text mode.
	good := filepath.Join(dir, "good.sasm")
	if err := os.WriteFile(good, []byte("func main {\n movi r1, 1\n halt\n}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if out := runCmd(t, lintBin, "-vm", good); strings.TrimSpace(out) != "" {
		t.Errorf("-vm on a clean program produced output:\n%s", out)
	}
}
