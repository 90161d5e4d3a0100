package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"sigil/internal/cdfg"
	"sigil/internal/core"
	"sigil/internal/critpath"
	"sigil/internal/reuse"
	"sigil/internal/trace"
	"sigil/internal/tracing"
	"sigil/internal/vm"
	"sigil/internal/workloads"
)

// workload is one closed-loop user pipeline: profile a registry program
// under Sigil, write the artifacts to memory, read them back and answer the
// paper's case-study question for it.
type workload struct {
	name    string
	program string
	class   workloads.Class
	reuse   bool // profile in re-use mode (core.Options.TrackReuse)
	events  bool // write a v3 event file and take its critical path
	// answer runs the case-study analysis on the pass's read-back
	// artifacts and renders its result for the correctness check.
	answer func(b *tracing.Buf, a *artifacts) (string, error)
	// expect holds the outputs recorded at the seed commit, per class.
	expect map[workloads.Class]expected
}

// expected is a pass's reference output. The profile and the event file are
// byte-deterministic, so their digests pin every aggregate Sigil computes.
type expected struct {
	profileSHA  string
	eventsSHA   string // "" when the workload writes no event file
	serialOps   uint64 // critpath.Analysis.SerialOps (event workloads)
	criticalOps uint64 // critpath.Analysis.CriticalOps (event workloads)
	answer      string
}

var registry = []*workload{
	{
		name:    "dedup-partition",
		program: "dedup",
		class:   workloads.SimMedium,
		answer:  answerPartition,
		expect: map[workloads.Class]expected{
			workloads.SimSmall: {
				profileSHA: "072b29fcb7bae1b28ae9f2e5af3dca99539ed78722ee6e8ef480a00634eec459",
				answer: "covered=6181302/7211998 candidates=main/sha1_block_data_order:1.004," +
					"main/hashtable_search:1.011,main/adler32:1.013,main/_tr_flush_block:1.015," +
					"main/write_file:1.027,main/memcpy:1.083",
			},
			workloads.SimMedium: {
				profileSHA: "fb6228bd12bdf5abdae539fbc8110b123cb2f579c079ecee1099048b733b78de",
				answer: "covered=24674722/28797386 candidates=main/hashtable_search:1.003," +
					"main/sha1_block_data_order:1.004,main/adler32:1.013,main/_tr_flush_block:1.015," +
					"main/write_file:1.027,main/memcpy:1.083",
			},
		},
	},
	{
		name:    "canneal-critpath",
		program: "canneal",
		class:   workloads.SimLarge,
		events:  true,
		answer:  answerCritpath,
		expect: map[workloads.Class]expected{
			workloads.SimSmall: {
				profileSHA:  "24c4781ec88a40cca893f53bdffd9f5fe10f1f1b847e6a6b94563dc16822a41c",
				eventsSHA:   "a2c442a7599f5064e8010dcf43ff949eb4ea7a91b8b667db0eafbff4ba6e6b77",
				serialOps:   1299865,
				criticalOps: 826000,
				answer:      "parallelism=1.5737 chain=317:7406f38f098dc281",
			},
			workloads.SimLarge: {
				profileSHA:  "985cce4c118b41533c87ff8a5ab225b2ae72579c6bc38ecf9e8cbb1e84820c7a",
				eventsSHA:   "66ef338fa525145d47162ebe0f99cf697d9acb7cebb3ffdb162a587147f73a7b",
				serialOps:   20243183,
				criticalOps: 13156189,
				answer:      "parallelism=1.5387 chain=5003:d363a3ee0d716c59",
			},
		},
	},
	{
		name:    "vips-reuse",
		program: "vips",
		class:   workloads.SimLarge,
		reuse:   true,
		answer:  answerReuse,
		expect: map[workloads.Class]expected{
			workloads.SimSmall: {
				profileSHA: "efdd4c5ccca7dfb44044c595e924bf6b24a5d9345e228506d81b78ba6940335c",
				answer:     "episodes=86080 zero=0.0312 low=0.9665 high=0.0022 top=conv_gen,imb_XYZ2Lab,affine_gen peak=8 tail=70",
			},
			workloads.SimLarge: {
				profileSHA: "57f469bc1aa0bff3f42c7692ee742944076580b59819ed89920ae87fe2d2f631",
				answer:     "episodes=1255040 zero=0.0004 low=0.9913 high=0.0083 top=conv_gen,imb_XYZ2Lab,affine_gen peak=145 tail=1161",
			},
		},
	},
}

func lookup(name string) (*workload, error) {
	var names []string
	for _, w := range registry {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

func (w *workload) options() core.Options {
	return core.Options{TrackReuse: w.reuse}
}

// artifacts is what one pass produced and read back.
type artifacts struct {
	result  *core.Result // the profiling run's in-memory result
	profile []byte       // the written profile
	events  []byte       // the written v3 event file (event workloads)
	emitted uint64       // trace.Writer.Count after Close
	back    *core.Result // the profile as read back
	decoded *trace.Trace // the event file as read back
	crit    *critpath.Analysis
	answer  string // the case-study answer
}

// passTimes are the wall times one pass measured.
type passTimes struct {
	pass    time.Duration // the whole pass
	profile time.Duration // the core.Run call alone
}

// runPass executes one pass of w's pipeline on a built program. Spans go
// to b around each call into a layer; a nil b records nothing.
func (w *workload) runPass(b *tracing.Buf, prog *vm.Program, input []byte) (*artifacts, passTimes, error) {
	var pt passTimes
	start := time.Now()
	span := b.Start("pass", tracing.A("workload", w.name))
	defer span.End()

	a := &artifacts{}
	opts := w.options()
	var evBuf bytes.Buffer
	var ew *trace.Writer
	if w.events {
		ew = trace.NewWriter(&evBuf)
		opts.Events = ew
	}
	s := b.Start("core.Run")
	t0 := time.Now()
	res, err := core.Run(prog, opts, input)
	pt.profile = time.Since(t0)
	s.End()
	if ew != nil {
		s = b.Start("trace.Writer.Close")
		cerr := ew.Close()
		s.End()
		if err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, pt, fmt.Errorf("profiling run: %w", err)
	}
	a.result = res

	var profBuf bytes.Buffer
	s = b.Start("core.WriteProfile")
	err = core.WriteProfile(&profBuf, res)
	s.End()
	if err != nil {
		return nil, pt, fmt.Errorf("writing profile: %w", err)
	}
	a.profile = profBuf.Bytes()
	s = b.Start("core.ReadProfile")
	a.back, err = core.ReadProfile(bytes.NewReader(a.profile))
	s.End()
	if err != nil {
		return nil, pt, fmt.Errorf("reading profile back: %w", err)
	}

	if ew != nil {
		a.events = evBuf.Bytes()
		a.emitted = ew.Count()
		s = b.Start("trace.ReadAllWorkers")
		a.decoded, err = trace.ReadAllWorkers(bytes.NewReader(a.events), runtime.NumCPU())
		s.End()
		if err != nil {
			return nil, pt, fmt.Errorf("decoding event file: %w", err)
		}
	}
	if a.answer, err = w.answer(b, a); err != nil {
		return nil, pt, err
	}
	pt.pass = time.Since(start)
	return a, pt, nil
}

// answerPartition is the dedup column of Table II: the trimmed calltree's
// accelerator candidates, best breakeven first.
func answerPartition(b *tracing.Buf, a *artifacts) (string, error) {
	s := b.Start("cdfg")
	defer s.End()
	g, err := cdfg.Build(a.back, cdfg.Config{})
	if err != nil {
		return "", fmt.Errorf("cdfg: %w", err)
	}
	t := g.Trim()
	var parts []string
	for _, c := range t.Candidates {
		parts = append(parts, fmt.Sprintf("%s:%.4g", c.Path, c.Breakeven))
	}
	return fmt.Sprintf("covered=%d/%d candidates=%s", t.CoveredCycles, t.TotalCycles, strings.Join(parts, ",")), nil
}

// answerCritpath is Fig 13's bar for canneal: the function-level
// parallelism bound and the critical chain, given by its length and digest
// (canneal's chain alternates main and mul thousands of times).
func answerCritpath(b *tracing.Buf, a *artifacts) (string, error) {
	s := b.Start("critpath.Analyze")
	defer s.End()
	an, err := critpath.Analyze(a.decoded)
	if err != nil {
		return "", fmt.Errorf("critpath: %w", err)
	}
	a.crit = an
	chain := digest([]byte(strings.Join(an.Chain, ">")))
	return fmt.Sprintf("parallelism=%.4f chain=%d:%s", an.Parallelism(), len(an.Chain), chain[:16]), nil
}

// answerReuse is §IV-B for vips: the Fig 8 breakdown, the Fig 9 top
// functions and the Figs 10–11 lifetime histogram of the top one.
func answerReuse(b *tracing.Buf, a *artifacts) (string, error) {
	s := b.Start("reuse")
	defer s.End()
	bd, err := reuse.Analyze(a.back)
	if err != nil {
		return "", err
	}
	top, err := reuse.TopFunctions(a.back, 8)
	if err != nil {
		return "", err
	}
	if len(top) == 0 {
		return "", errors.New("reuse: no function re-uses data")
	}
	hist, err := reuse.LifetimeHistogram(a.back, top[0].Name)
	if err != nil {
		return "", err
	}
	names := make([]string, len(top))
	for i, f := range top {
		names[i] = f.Name
	}
	sh := reuse.Shape(hist)
	return fmt.Sprintf("episodes=%d zero=%.4f low=%.4f high=%.4f top=%s peak=%d tail=%d",
		bd.Episodes, bd.Zero, bd.Low, bd.High, strings.Join(names, ","), sh.PeakBin, sh.TailBin), nil
}

// check compares a pass's outputs with the recorded reference and returns
// every mismatch; an empty slice means the pass is correct.
func (w *workload) check(a *artifacts, want expected) []string {
	var bad []string
	if got := digest(a.profile); got != want.profileSHA {
		bad = append(bad, fmt.Sprintf("profile sha256 %s, want %s", got, want.profileSHA))
	}
	if w.events {
		if got := digest(a.events); got != want.eventsSHA {
			bad = append(bad, fmt.Sprintf("event file sha256 %s, want %s", got, want.eventsSHA))
		}
		if n := uint64(len(a.decoded.Events) + len(a.decoded.Contexts)); n != a.emitted {
			bad = append(bad, fmt.Sprintf("decoded %d events, writer counted %d", n, a.emitted))
		}
		if a.crit.SerialOps != want.serialOps || a.crit.CriticalOps != want.criticalOps {
			bad = append(bad, fmt.Sprintf("critpath serial/critical ops %d/%d, want %d/%d",
				a.crit.SerialOps, a.crit.CriticalOps, want.serialOps, want.criticalOps))
		}
	}
	if read, consumed := conservation(a.result); read != consumed {
		bad = append(bad, fmt.Sprintf("conservation: classified %d bytes read, substrate saw %d", read, consumed))
	}
	if a.answer != want.answer {
		bad = append(bad, fmt.Sprintf("answer %q, want %q", a.answer, want.answer))
	}
	return bad
}

// conservation returns the bytes Sigil classified as read (Σ TotalRead over
// contexts) and the bytes the substrate saw loaded or consumed by syscalls
// (Σ ReadBytes+SysIn). Every byte read is classified exactly once, so the
// two are equal.
func conservation(r *core.Result) (read, consumed uint64) {
	for _, c := range r.Comm {
		read += c.TotalRead()
	}
	for _, n := range r.Profile.Nodes {
		consumed += n.Self.ReadBytes + n.Self.SysIn
	}
	return read, consumed
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
