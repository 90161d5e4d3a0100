package workloads_test

import (
	"bytes"
	"slices"
	"testing"

	"sigil/internal/core"
	"sigil/internal/trace"
	"sigil/internal/workloads"
)

// These are whole-suite conservation laws: for every workload, the
// per-context aggregates, the producer→consumer edges and the synthetic
// external producers must describe the same bytes. Any bookkeeping drift in
// the classification engine breaks one of them.

func profileAll(t *testing.T, opts core.Options) map[string]*core.Result {
	t.Helper()
	out := map[string]*core.Result{}
	for _, name := range workloads.Names() {
		prog, input, err := workloads.Build(name, workloads.SimSmall)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r, err := core.Run(prog, opts, input)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = r
	}
	return out
}

func TestEdgeAggregateConservation(t *testing.T) {
	for name, r := range profileAll(t, core.Options{}) {
		var inU, inN, outU, outN uint64
		for _, c := range r.Comm {
			inU += c.InputUnique
			inN += c.InputNonUnique
			outU += c.OutputUnique
			outN += c.OutputNonUnique
		}
		var eInU, eInN, eOutU, eOutN, startup, kernelOut, kernelIn uint64
		for _, e := range r.Edges {
			if e.Dst >= 0 {
				eInU += e.Unique
				eInN += e.NonUnique
			} else {
				kernelIn += e.Unique
			}
			switch {
			case e.Src >= 0:
				eOutU += e.Unique
				eOutN += e.NonUnique
			case e.Src == trace.CtxStartup:
				startup += e.Unique
			case e.Src == trace.CtxKernel:
				kernelOut += e.Unique
			}
		}
		if inU != eInU || inN != eInN {
			t.Errorf("%s: context inputs (%d/%d) != edge sums (%d/%d)",
				name, inU, inN, eInU, eInN)
		}
		// Syscall consumption credits the caller's OutputUnique and an
		// edge to the kernel; that edge has a real source, so the edge
		// sum over src>=0 already covers it and must equal the context
		// output totals exactly.
		if outU != eOutU {
			t.Errorf("%s: context outputs %d != edges-from-contexts %d",
				name, outU, eOutU)
		}
		if outN != eOutN {
			t.Errorf("%s: non-unique outputs %d != %d", name, outN, eOutN)
		}
		if r.StartupBytes != startup {
			t.Errorf("%s: StartupBytes %d != startup edge sum %d",
				name, r.StartupBytes, startup)
		}
		if r.KernelOutBytes != kernelOut {
			t.Errorf("%s: KernelOutBytes %d != kernel edge sum %d",
				name, r.KernelOutBytes, kernelOut)
		}
		if r.KernelInBytes != kernelIn {
			t.Errorf("%s: KernelInBytes %d != to-kernel edge sum %d",
				name, r.KernelInBytes, kernelIn)
		}
	}
}

func TestReadBytesMatchSubstrate(t *testing.T) {
	// Every byte the substrate saw loaded must be classified: reads
	// recorded by Callgrind equal the classification totals (input +
	// local, unique + non-unique), excluding syscall-consumed bytes
	// (which the substrate counts separately as SysIn).
	for name, r := range profileAll(t, core.Options{}) {
		var loaded, sysIn uint64
		for _, n := range r.Profile.Nodes {
			loaded += n.Self.ReadBytes
			sysIn += n.Self.SysIn
		}
		classified := r.TotalCommunicated().TotalRead()
		if classified != loaded+sysIn {
			t.Errorf("%s: classified %d bytes, substrate loaded %d + sys %d",
				name, classified, loaded, sysIn)
		}
	}
}

func TestReuseEpisodeConservation(t *testing.T) {
	// Episodes partition into the three buckets, and reused bytes fill
	// the lifetime histograms exactly.
	for name, r := range profileAll(t, core.Options{TrackReuse: true}) {
		var total core.ReuseStats
		for i := range r.Reuse {
			total.Add(r.Reuse[i])
		}
		if total.Episodes != total.ZeroReuse+total.Low+total.High {
			t.Errorf("%s: %d episodes != %d+%d+%d buckets",
				name, total.Episodes, total.ZeroReuse, total.Low, total.High)
		}
		if total.ReusedBytes != total.Low+total.High {
			t.Errorf("%s: reused bytes %d != low+high %d",
				name, total.ReusedBytes, total.Low+total.High)
		}
		var hist uint64
		for _, v := range total.LifetimeHist {
			hist += v
		}
		if hist != total.ReusedBytes {
			t.Errorf("%s: histogram mass %d != reused %d", name, hist, total.ReusedBytes)
		}
	}
}

// TestEventStreamsBalancedForAllWorkloads: every workload's event stream
// nests its calls, and re-use mode emits the same stream as byte mode (so
// sigil-report takes its events from its re-use-mode run).
func TestEventStreamsBalancedForAllWorkloads(t *testing.T) {
	for _, name := range workloads.Names() {
		prog, input, err := workloads.Build(name, workloads.SimSmall)
		if err != nil {
			t.Fatal(err)
		}
		var buf, reuseBuf trace.Buffer
		if _, err := core.Run(prog, core.Options{Events: &buf}, input); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := core.Run(prog, core.Options{TrackReuse: true, Events: &reuseBuf}, input); err != nil {
			t.Fatalf("%s (re-use mode): %v", name, err)
		}
		if !slices.Equal(buf.Events, reuseBuf.Events) {
			t.Errorf("%s: re-use mode emits a different event stream (%d vs %d events)", name, len(reuseBuf.Events), len(buf.Events))
		}
		tr := trace.FromBuffer(&buf)
		depth := 0
		open := map[uint64]bool{}
		for _, e := range tr.Events {
			switch e.Kind {
			case trace.KindEnter:
				depth++
				open[e.Call] = true
			case trace.KindLeave:
				depth--
				if !open[e.Call] {
					t.Fatalf("%s: leave of never-entered call %d", name, e.Call)
				}
				delete(open, e.Call)
			case trace.KindComm, trace.KindOps:
				if !open[e.Call] {
					t.Fatalf("%s: %s for closed call %d", name, e.Kind, e.Call)
				}
			}
			if depth < 0 {
				t.Fatalf("%s: negative nesting", name)
			}
		}
		if depth != 0 || len(open) != 0 {
			t.Errorf("%s: %d unbalanced calls at end", name, len(open))
		}
	}
}

func TestProfileSerializationAllWorkloads(t *testing.T) {
	// Every workload's reuse-mode profile must survive a write/read
	// round trip bit-for-bit in its aggregates.
	for name, r := range profileAll(t, core.Options{TrackReuse: true}) {
		var buf bytes.Buffer
		if err := core.WriteProfile(&buf, r); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		got, err := core.ReadProfile(&buf)
		if err != nil {
			t.Fatalf("%s: read: %v", name, err)
		}
		if got.Profile.TotalInstrs != r.Profile.TotalInstrs ||
			len(got.Profile.Nodes) != len(r.Profile.Nodes) ||
			len(got.Edges) != len(r.Edges) {
			t.Errorf("%s: round trip lost structure", name)
		}
		a, b := r.TotalCommunicated(), got.TotalCommunicated()
		if a != b {
			t.Errorf("%s: totals differ: %+v vs %+v", name, a, b)
		}
	}
}
