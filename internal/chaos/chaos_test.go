// Package chaos is the fault-injection sweep: it drives every registered
// fault point through real workload runs in both output modes (callgrind
// substrate dumps and sigil event files) and asserts the repo's two
// survival contracts for each injected failure:
//
//   - atomicity: a failed write pipeline surfaces a typed error
//     (errors.Is(err, faultinject.ErrInjected)) and leaves the previous
//     artifact at the output path byte-for-byte intact, with no stray
//     temporary files; or
//   - salvageability: the operation completes and the resulting stream,
//     read back through Salvage, is a prefix-with-gaps of the fault-free
//     baseline with every lost event accounted for (quarantined frame
//     declarations plus the footer's drop record).
//
// The sweep lives in its own package because the fault registry is
// process-global: these tests must own it for their whole run.
package chaos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"sigil/internal/core"
	"sigil/internal/faultinject"
	"sigil/internal/safeio"
	"sigil/internal/trace"
	"sigil/internal/tracing"
	"sigil/internal/vm"
	"sigil/internal/workloads"
)

// chaosWorkloads are the workloads the sweep profiles. Short mode keeps
// one; the full sweep runs all three so every fault point is exercised
// against different stream shapes and sizes.
func chaosWorkloads(short bool) []string {
	if short {
		return []string{"fft"}
	}
	return []string{"fft", "dedup", "blackscholes"}
}

// baseline is one workload's fault-free reference: the program, its
// substrate dump, and its committed event file (decoded and raw).
type baseline struct {
	name    string
	prog    *vm.Program
	input   []byte
	res     *core.Result
	cg      []byte       // fault-free callgrind dump bytes
	evt     []byte       // fault-free committed event file bytes
	tr      *trace.Trace // the decoded fault-free event stream
	emitted uint64       // total records (events + context definitions)
}

func newBaseline(t *testing.T, name string) *baseline {
	t.Helper()
	faultinject.Disable()
	class, err := workloads.ParseClass("simsmall")
	if err != nil {
		t.Fatal(err)
	}
	prog, input, err := workloads.Build(name, class)
	if err != nil {
		t.Fatal(err)
	}
	b := &baseline{name: name, prog: prog, input: input}

	dir := t.TempDir()
	path := filepath.Join(dir, "baseline.evt")
	sink, err := trace.CreateFileOptions(path, trace.WriterOptions{FrameEvents: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Abort()
	res, err := core.RunContext(context.Background(), prog, core.Options{Events: sink}, b.runInput())
	if err != nil {
		t.Fatalf("fault-free %s run failed: %v", name, err)
	}
	if err := sink.Commit(); err != nil {
		t.Fatal(err)
	}
	b.res = res
	if b.evt, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	if b.tr, err = trace.ReadAll(bytes.NewReader(b.evt)); err != nil {
		t.Fatalf("fault-free %s event file does not decode: %v", name, err)
	}
	b.emitted = uint64(len(b.tr.Events) + len(b.tr.Contexts))
	if accepted := sink.Stats().Events; b.emitted != accepted {
		t.Fatalf("baseline decode recovered %d records, writer accepted %d", b.emitted, accepted)
	}

	var cg bytes.Buffer
	if err := res.Profile.WriteCallgrindFormat(&cg); err != nil {
		t.Fatal(err)
	}
	b.cg = cg.Bytes()
	return b
}

// runInput returns a fresh copy of the workload's syscall input so no run
// can perturb another's.
func (b *baseline) runInput() []byte { return append([]byte(nil), b.input...) }

// sigilRun profiles the baseline's workload into an event file at path
// under whatever faults are currently installed. created is false when the
// sink itself could not be opened (commitErr then holds that error).
func (b *baseline) sigilRun(path string, wopts trace.WriterOptions) (created bool, runErr, commitErr error, st trace.WriterStats) {
	sink, err := trace.CreateFileOptions(path, wopts)
	if err != nil {
		return false, nil, err, st
	}
	defer sink.Abort()
	_, runErr = core.RunContext(context.Background(), b.prog, core.Options{Events: sink}, b.runInput())
	commitErr = sink.Commit()
	return true, runErr, commitErr, sink.Stats()
}

// sentinel places a previous-artifact stand-in at path; checkIntact
// asserts atomicity — the failed pipeline left it untouched and cleaned up
// its temporary file.
var sentinelContent = []byte("previous artifact: must survive injected faults\n")

func placeSentinel(t *testing.T, path string) {
	t.Helper()
	if err := os.WriteFile(path, sentinelContent, 0o644); err != nil {
		t.Fatal(err)
	}
}

func checkIntact(t *testing.T, path string) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Errorf("previous artifact gone after injected fault: %v", err)
	} else if !bytes.Equal(got, sentinelContent) {
		t.Errorf("previous artifact modified by failed pipeline (%d bytes, want %d)", len(got), len(sentinelContent))
	}
	checkNoTempFiles(t, filepath.Dir(path))
}

func checkNoTempFiles(t *testing.T, dir string) {
	t.Helper()
	stray, err := filepath.Glob(filepath.Join(dir, "*.tmp*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(stray) > 0 {
		t.Errorf("failed pipeline leaked temporary files: %v", stray)
	}
}

// isSubsequence reports whether got is events in order with gaps — every
// recovered event appears in the baseline stream, in baseline order.
func isSubsequence(got, all []trace.Event) bool {
	j := 0
	for _, e := range got {
		for j < len(all) && all[j] != e {
			j++
		}
		if j >= len(all) {
			return false
		}
		j++
	}
	return true
}

// checkSalvageAgainstBaseline asserts the salvage contract for a stream
// damaged by a single injected fault: the recovered events are a
// prefix-with-gaps of the fault-free run, the byte accounting closes, and
// — when the scan kept framing to the footer — the loss reconciles
// exactly: emitted == decoded + quarantined-declared + dropped.
func checkSalvageAgainstBaseline(t *testing.T, b *baseline, tr *trace.Trace, rep *trace.SalvageReport) {
	t.Helper()
	if rep.Complete {
		t.Error("salvage certified a damaged stream complete")
	}
	if !isSubsequence(tr.Events, b.tr.Events) {
		t.Error("recovered events are not a prefix-with-gaps of the fault-free stream")
	}
	for id, info := range tr.Contexts {
		if want, ok := b.tr.Contexts[id]; ok && info != want {
			t.Errorf("recovered context %d diverges from baseline: %+v vs %+v", id, info, want)
		}
	}
	if rep.BytesValid+rep.BytesQuarantined > rep.BytesTotal {
		t.Errorf("byte accounting overflow: valid %d + quarantined %d > total %d",
			rep.BytesValid, rep.BytesQuarantined, rep.BytesTotal)
	}
	var quarDeclared uint64
	for _, q := range rep.Quarantined {
		quarDeclared += q.Events
	}
	if !rep.Truncated && rep.Err == nil {
		if got := uint64(rep.Events) + quarDeclared + rep.EventsDropped; got != b.emitted {
			t.Errorf("loss does not reconcile: decoded %d + quarantined %d + dropped %d = %d, emitted %d",
				rep.Events, quarDeclared, rep.EventsDropped, got, b.emitted)
		}
	} else if uint64(rep.Events) > b.emitted {
		t.Errorf("recovered %d records from a run that emitted %d", rep.Events, b.emitted)
	}
}

// install sets up a fresh registry with one planned fault and returns it.
// The registry stays installed until the next install or Disable. It also
// marks the process flight recorder's cursor, so checkFlightFault can
// assert that firings from this installation (and only these) reached the
// ring.
func install(point string, p faultinject.Plan) *faultinject.Registry {
	flightMark = tracing.Flight().Recorded()
	reg := faultinject.New(0xC4A05).Plan(point, p)
	faultinject.Enable(reg)
	return reg
}

// flightMark is the flight-recorder cursor at the last install; chaos
// tests run sequentially, so a package global suffices.
var flightMark uint64

// checkFlightFault asserts the injected-fault firing landed in the flight
// recorder: every failure the sweep provokes must be reconstructible from
// the post-mortem ring, not only from the returned error.
func checkFlightFault(t *testing.T, point string) {
	t.Helper()
	for _, e := range tracing.Flight().Snapshot() {
		if e.Seq > flightMark && e.Kind == tracing.KindFault && e.Name == point {
			return
		}
	}
	t.Errorf("no flight-recorder fault event for %s after an injected-fault failure", point)
}

// TestChaos is the sweep: every fault point x {callgrind, sigil} output
// modes x the chaos workloads.
func TestChaos(t *testing.T) {
	defer faultinject.Disable()
	for _, name := range chaosWorkloads(testing.Short()) {
		t.Run(name, func(t *testing.T) {
			b := newBaseline(t, name)
			t.Run("callgrind", func(t *testing.T) { chaosCallgrind(t, b) })
			t.Run("sigil", func(t *testing.T) { chaosSigil(t, b) })
		})
	}
}

// chaosCallgrind drives the safeio.WriteFile pipeline (the path every
// substrate dump, profile and report takes) through each of its fault
// points and failure classes.
func chaosCallgrind(t *testing.T, b *baseline) {
	dump := func(path string) error {
		return safeio.WriteFile(path, func(w io.Writer) error {
			return b.res.Profile.WriteCallgrindFormat(w)
		})
	}

	// Op points and hard write errors: typed error, previous artifact intact.
	typed := []struct {
		point string
		mode  faultinject.Mode
	}{
		{faultinject.SafeioCreate, faultinject.Err},
		{faultinject.SafeioCreate, faultinject.ENOSPC},
		{faultinject.SafeioSync, faultinject.Err},
		{faultinject.SafeioClose, faultinject.Err},
		{faultinject.SafeioRename, faultinject.Err},
		{faultinject.SafeioWrite, faultinject.Err},
		{faultinject.SafeioWrite, faultinject.ENOSPC},
		{faultinject.SafeioWrite, faultinject.Torn},
	}
	for _, tc := range typed {
		t.Run(fmt.Sprintf("%s/%s", tc.point, tc.mode), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "out.cg")
			placeSentinel(t, path)
			reg := install(tc.point, faultinject.Plan{Mode: tc.mode, Nth: 1})
			defer faultinject.Disable()
			err := dump(path)
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Errorf("injected %s fault at %s surfaced as %v, want ErrInjected", tc.mode, tc.point, err)
			}
			if tc.mode == faultinject.ENOSPC && !errors.Is(err, syscall.ENOSPC) {
				t.Errorf("ENOSPC fault not visible to errors.Is(syscall.ENOSPC): %v", err)
			}
			if reg.Fired(tc.point) != 1 {
				t.Errorf("point %s fired %d times, want 1", tc.point, reg.Fired(tc.point))
			}
			checkFlightFault(t, tc.point)
			checkIntact(t, path)
		})
	}

	// A short write is an io.Writer contract violation, not an error value:
	// the hardening layer must convert it and the pipeline must still abort
	// atomically.
	t.Run("safeio.write/short", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "out.cg")
		placeSentinel(t, path)
		install(faultinject.SafeioWrite, faultinject.Plan{Mode: faultinject.ShortWrite, Nth: 1})
		defer faultinject.Disable()
		err := dump(path)
		if !errors.Is(err, io.ErrShortWrite) {
			t.Errorf("short write surfaced as %v, want io.ErrShortWrite", err)
		}
		checkFlightFault(t, faultinject.SafeioWrite)
		checkIntact(t, path)
	})

	// A silent bit flip in an unchecksummed text dump commits: the contract
	// is only that the damage is bounded to the flipped bit. (The event-file
	// pipeline, by contrast, must catch this class — see chaosSigil.)
	t.Run("safeio.write/bitflip", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "out.cg")
		placeSentinel(t, path)
		install(faultinject.SafeioWrite, faultinject.Plan{Mode: faultinject.BitFlip, Nth: 1})
		defer faultinject.Disable()
		if err := dump(path); err != nil {
			t.Fatalf("bit flip failed the dump: %v", err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(b.cg) {
			t.Fatalf("flipped dump is %d bytes, fault-free is %d", len(got), len(b.cg))
		}
		diff := 0
		for i := range got {
			if got[i] != b.cg[i] {
				diff++
			}
		}
		if diff != 1 {
			t.Errorf("bit flip changed %d bytes, want exactly 1", diff)
		}
	})

	// An every-Kth schedule: whether it fires depends on how many sink
	// writes the dump takes, and the contract must hold either way.
	t.Run("safeio.write/every-2", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "out.cg")
		placeSentinel(t, path)
		reg := install(faultinject.SafeioWrite, faultinject.Plan{Mode: faultinject.Err, Every: 2})
		defer faultinject.Disable()
		err := dump(path)
		if reg.Fired(faultinject.SafeioWrite) > 0 {
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Errorf("fired every-2 fault surfaced as %v", err)
			}
			checkFlightFault(t, faultinject.SafeioWrite)
			checkIntact(t, path)
		} else {
			if err != nil {
				t.Errorf("unfired schedule failed the dump: %v", err)
			}
			got, _ := os.ReadFile(path)
			if !bytes.Equal(got, b.cg) {
				t.Error("unfired schedule changed the dump")
			}
		}
	})
}

// chaosSigil drives the event-file pipeline — FileSink around the async v3
// writer, plus the reader — through its fault points.
func chaosSigil(t *testing.T, b *baseline) {
	// Sink creation failing means no run at all: typed error, path intact.
	t.Run("trace.sink.create/err", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "out.evt")
		placeSentinel(t, path)
		install(faultinject.SinkCreate, faultinject.Plan{Mode: faultinject.Err, Nth: 1})
		defer faultinject.Disable()
		created, _, err, _ := b.sigilRun(path, trace.WriterOptions{FrameEvents: 64})
		if created {
			t.Fatal("sink created through an injected create fault")
		}
		if !errors.Is(err, faultinject.ErrInjected) {
			t.Errorf("create fault surfaced as %v", err)
		}
		checkFlightFault(t, faultinject.SinkCreate)
		checkIntact(t, path)
	})

	// Finalization faults: the run completes, Commit fails with the typed
	// error, and the previous artifact survives.
	for _, point := range []string{faultinject.SinkSync, faultinject.SinkClose, faultinject.SinkRename} {
		t.Run(point+"/err", func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "out.evt")
			placeSentinel(t, path)
			reg := install(point, faultinject.Plan{Mode: faultinject.Err, Nth: 1})
			defer faultinject.Disable()
			created, runErr, commitErr, _ := b.sigilRun(path, trace.WriterOptions{FrameEvents: 64})
			if !created || runErr != nil {
				t.Fatalf("finalization fault leaked into the run: created=%v runErr=%v", created, runErr)
			}
			if !errors.Is(commitErr, faultinject.ErrInjected) {
				t.Errorf("injected %s fault surfaced as %v", point, commitErr)
			}
			if reg.Fired(point) != 1 {
				t.Errorf("point %s fired %d times, want 1", point, reg.Fired(point))
			}
			checkFlightFault(t, point)
			checkIntact(t, path)
		})
	}

	// Strict-writer sink faults: the error reaches the run or Commit (the
	// profile aggregates are unaffected either way), and the path stays
	// intact. Where in the run the fault lands depends on when the 64 KiB
	// buffer first reaches the sink, so the assertion accepts either
	// surface.
	for _, mode := range []faultinject.Mode{faultinject.Err, faultinject.ENOSPC, faultinject.Torn} {
		t.Run("trace.v3.write/"+mode.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "out.evt")
			placeSentinel(t, path)
			install(faultinject.TraceWriteV3, faultinject.Plan{Mode: mode, Nth: 1})
			defer faultinject.Disable()
			created, runErr, commitErr, _ := b.sigilRun(path, trace.WriterOptions{FrameEvents: 64})
			if !created {
				t.Fatalf("sink creation failed: %v", commitErr)
			}
			err := commitErr
			if err == nil {
				err = runErr
			}
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Errorf("injected %s sink fault surfaced as runErr=%v commitErr=%v", mode, runErr, commitErr)
			}
			if mode == faultinject.ENOSPC && !errors.Is(err, syscall.ENOSPC) {
				t.Errorf("ENOSPC fault not visible to errors.Is(syscall.ENOSPC): %v", err)
			}
			checkFlightFault(t, faultinject.TraceWriteV3)
			checkIntact(t, path)
		})
	}

	t.Run("trace.v3.write/short", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "out.evt")
		placeSentinel(t, path)
		install(faultinject.TraceWriteV3, faultinject.Plan{Mode: faultinject.ShortWrite, Nth: 1})
		defer faultinject.Disable()
		created, runErr, commitErr, _ := b.sigilRun(path, trace.WriterOptions{FrameEvents: 64})
		if !created {
			t.Fatalf("sink creation failed: %v", commitErr)
		}
		err := commitErr
		if err == nil {
			err = runErr
		}
		if !errors.Is(err, io.ErrShortWrite) {
			t.Errorf("short sink write surfaced as runErr=%v commitErr=%v, want io.ErrShortWrite", runErr, commitErr)
		}
		checkFlightFault(t, faultinject.TraceWriteV3)
		checkIntact(t, path)
	})

	// A silent bit flip in the event pipeline MUST be caught downstream:
	// every byte of a v3 stream is covered by a frame CRC, the footer CRC,
	// or the trailer. The file commits, but salvage must refuse to certify
	// it and must bound the loss to the damaged frame.
	t.Run("trace.v3.write/bitflip", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "out.evt")
		install(faultinject.TraceWriteV3, faultinject.Plan{Mode: faultinject.BitFlip, Nth: 1})
		created, runErr, commitErr, _ := b.sigilRun(path, trace.WriterOptions{FrameEvents: 64})
		faultinject.Disable()
		if !created || runErr != nil || commitErr != nil {
			t.Fatalf("bit flip failed the pipeline: created=%v runErr=%v commitErr=%v", created, runErr, commitErr)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		tr, rep, err := trace.Salvage(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("salvage rejected the flipped stream outright: %v", err)
		}
		checkFlightFault(t, faultinject.TraceWriteV3)
		checkSalvageAgainstBaseline(t, b, tr, rep)
	})

	// Retry heals a transient sink fault: the first write fails once, the
	// backoff layer re-issues it, and the committed file is bit-exact
	// recoverable — zero loss, complete footer.
	t.Run("trace.v3.write/retry-heals", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "out.evt")
		reg := install(faultinject.TraceWriteV3, faultinject.Plan{Mode: faultinject.Err, Nth: 1})
		created, runErr, commitErr, st := b.sigilRun(path, trace.WriterOptions{
			FrameEvents: 64,
			MaxRetries:  2,
		})
		faultinject.Disable()
		if !created || runErr != nil || commitErr != nil {
			t.Fatalf("retry did not heal the transient fault: created=%v runErr=%v commitErr=%v", created, runErr, commitErr)
		}
		if reg.Fired(faultinject.TraceWriteV3) != 1 {
			t.Errorf("fault fired %d times, want 1", reg.Fired(faultinject.TraceWriteV3))
		}
		if st.Retries == 0 {
			t.Error("retry counter is zero after a healed fault")
		}
		checkFlightFault(t, faultinject.TraceWriteV3)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		tr, rep, err := trace.Salvage(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Complete {
			t.Errorf("healed stream not certified complete: %v", rep)
		}
		if uint64(len(tr.Events)+len(tr.Contexts)) != b.emitted {
			t.Errorf("healed stream holds %d records, baseline %d", len(tr.Events)+len(tr.Contexts), b.emitted)
		}
	})

	// Degraded mode with a permanently dead sink (probability-1 schedule):
	// the interpreter must be completely unaffected — no run error — and
	// the failure surfaces only at Commit, atomically.
	t.Run("trace.v3.write/degraded-dead-sink", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "out.evt")
		placeSentinel(t, path)
		install(faultinject.TraceWriteV3, faultinject.Plan{Mode: faultinject.Err, Prob: 1.0})
		defer faultinject.Disable()
		created, runErr, commitErr, _ := b.sigilRun(path, trace.WriterOptions{
			FrameEvents: 64,
			Degraded:    true,
		})
		if !created {
			t.Fatalf("sink creation failed: %v", commitErr)
		}
		if runErr != nil {
			t.Errorf("dead sink leaked into a degraded run: %v", runErr)
		}
		if !errors.Is(commitErr, faultinject.ErrInjected) {
			t.Errorf("dead-sink Commit surfaced %v, want ErrInjected", commitErr)
		}
		checkFlightFault(t, faultinject.TraceWriteV3)
		checkIntact(t, path)
	})

	// Read faults against the fault-free baseline file.
	t.Run("trace.read/err", func(t *testing.T) {
		install(faultinject.TraceRead, faultinject.Plan{Mode: faultinject.Err, Nth: 1})
		defer faultinject.Disable()
		_, err := trace.ReadAll(bytes.NewReader(b.evt))
		if !errors.Is(err, faultinject.ErrInjected) {
			t.Errorf("injected read fault surfaced as %v", err)
		}
		checkFlightFault(t, faultinject.TraceRead)
	})

	t.Run("trace.read/bitflip", func(t *testing.T) {
		install(faultinject.TraceRead, faultinject.Plan{Mode: faultinject.BitFlip, Nth: 1})
		defer faultinject.Disable()
		tr, rep, err := trace.Salvage(bytes.NewReader(b.evt))
		if err != nil {
			t.Fatalf("salvage rejected a read-corrupted stream outright: %v", err)
		}
		checkFlightFault(t, faultinject.TraceRead)
		checkSalvageAgainstBaseline(t, b, tr, rep)
	})

	// A read that fails past the header is a failing source, not a cut
	// file: the injected error must reach the caller as itself, at every
	// decode width, and salvage must not report the stream truncated. The
	// file is served in small reads so the fault lands mid-stream.
	t.Run("trace.read/err-mid-stream", func(t *testing.T) {
		const chunk = 256
		nth := uint64(len(b.evt)/chunk/2 + 1)
		defer faultinject.Disable()
		for _, workers := range []int{1, 4} {
			install(faultinject.TraceRead, faultinject.Plan{Mode: faultinject.Err, Nth: nth})
			_, err := trace.ReadAllWorkers(&chunkReader{r: bytes.NewReader(b.evt), n: chunk}, workers)
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Errorf("%d workers: mid-stream read fault surfaced as %v", workers, err)
			}
			checkFlightFault(t, faultinject.TraceRead)
		}
		install(faultinject.TraceRead, faultinject.Plan{Mode: faultinject.Err, Nth: nth})
		_, rep, err := trace.Salvage(&chunkReader{r: bytes.NewReader(b.evt), n: chunk})
		if err != nil {
			t.Fatalf("salvage rejected the header it read before the fault: %v", err)
		}
		if !errors.Is(rep.Err, faultinject.ErrInjected) || rep.Truncated {
			t.Errorf("mid-stream read fault salvaged as Err=%v Truncated=%v, want the injected error, not truncated", rep.Err, rep.Truncated)
		}
		checkFlightFault(t, faultinject.TraceRead)
	})
}

// chunkReader serves at most n bytes per Read, so each Read is one small,
// predictable step through the stream.
type chunkReader struct {
	r io.Reader
	n int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	return c.r.Read(p[:min(len(p), c.n)])
}
