package core

import (
	"bytes"
	"reflect"
	"testing"

	"sigil/internal/cachesim"
	"sigil/internal/callgrind"
	"sigil/internal/trace"
	"sigil/internal/workloads"
)

// TestCommunicationIndependentOfSubstrate pins the paper's central claim:
// communication is a property of the program, not of the simulated
// platform. Each workload is profiled under the default substrate and
// again under a different cache geometry, prefetcher and branch predictor;
// every communication aggregate and the v3 event file must match byte for
// byte, while the L1 miss total must move, which proves the second
// substrate took effect.
func TestCommunicationIndependentOfSubstrate(t *testing.T) {
	other := callgrind.Options{
		L1:            cachesim.Config{Size: 4 << 10, LineSize: 32, Assoc: 2},
		LL:            cachesim.Config{Size: 256 << 10, LineSize: 128, Assoc: 4},
		Prefetch:      true,
		Gshare:        true,
		GshareHistory: 10,
		BranchTab:     512,
	}
	cases := []struct {
		workload string
		opts     Options
		events   bool
	}{
		{"dedup", Options{}, false},
		{"vips", Options{TrackReuse: true}, false},
		{"streamcluster", Options{LineGranularity: true}, false},
		{"canneal", Options{}, true},
		{"ferret", Options{}, true},
	}
	for _, c := range cases {
		t.Run(c.workload, func(t *testing.T) {
			run := func(sub callgrind.Options) (*Result, []byte) {
				t.Helper()
				prog, input, err := workloads.Build(c.workload, workloads.SimSmall)
				if err != nil {
					t.Fatal(err)
				}
				opts := c.opts
				opts.Substrate = sub
				var file bytes.Buffer
				var w *trace.Writer
				if c.events {
					w = trace.NewWriter(&file)
					opts.Events = w
				}
				res, err := Run(prog, opts, input)
				if err != nil {
					t.Fatal(err)
				}
				if w != nil {
					if err := w.Close(); err != nil {
						t.Fatal(err)
					}
				}
				return res, file.Bytes()
			}
			base, baseFile := run(callgrind.Options{})
			moved, movedFile := run(other)

			for _, f := range []struct {
				name        string
				base, moved any
			}{
				{"Comm", base.Comm, moved.Comm},
				{"Edges", base.Edges, moved.Edges},
				{"Reuse", base.Reuse, moved.Reuse},
				{"Lines", base.Lines, moved.Lines},
				{"StartupBytes", base.StartupBytes, moved.StartupBytes},
				{"KernelOutBytes", base.KernelOutBytes, moved.KernelOutBytes},
				{"KernelInBytes", base.KernelInBytes, moved.KernelInBytes},
			} {
				if !reflect.DeepEqual(f.base, f.moved) {
					t.Errorf("%s depends on the substrate:\ndefault %+v\nother   %+v", f.name, f.base, f.moved)
				}
			}
			if !bytes.Equal(baseFile, movedFile) {
				t.Errorf("event file depends on the substrate: %d vs %d bytes", len(baseFile), len(movedFile))
			}
			if b, m := l1Misses(base), l1Misses(moved); b == m {
				t.Errorf("L1 misses %d under both substrates; the second substrate did not take effect", b)
			}
		})
	}
}

func l1Misses(r *Result) uint64 {
	var n uint64
	for _, node := range r.Profile.Nodes {
		n += node.Self.L1Misses
	}
	return n
}
