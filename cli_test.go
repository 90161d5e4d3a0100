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
	"regexp"
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
// run with -progress emits JSON heartbeats and phase spans on stderr, and
// -telemetry-dump prints a final snapshot whose instruction count matches
// the summary the profile itself reports.
func TestCLITelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	sigilBin := buildCmd(t, dir, "sigil")

	cmd := exec.Command(sigilBin, "-workload", "fft",
		"-progress", "5ms", "-log-format", "json", "-telemetry-dump")
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
		cmd := exec.Command(sigilBin, "-workload", "canneal", "-class", "simlarge",
			"-o", prof, "-events", evt)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Duration(100*(attempt+1)) * time.Millisecond)
		if err := cmd.Process.Signal(os.Interrupt); err != nil {
			t.Fatal(err)
		}
		err := cmd.Wait()
		if err == nil {
			continue // the run beat the signal; give the next attempt longer
		}
		var exitErr *exec.ExitError
		if !errors.As(err, &exitErr) || exitErr.ExitCode() != 130 {
			t.Fatalf("interrupted run: %v, want exit 130\nstderr:\n%s", err, stderr.String())
		}
		if msg := stderr.String(); !strings.Contains(msg, "interrupted") &&
			!strings.Contains(msg, "context canceled") {
			t.Errorf("stderr does not explain the interrupt:\n%s", msg)
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
