package core

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"sigil/internal/cachesim"
	"sigil/internal/callgrind"
	"sigil/internal/dbi"
	"sigil/internal/trace"
	"sigil/internal/vm"
	"sigil/internal/workloads"
)

// otherSubstrate differs from the default substrate in every simulated
// component: smaller caches of other line sizes, the prefetcher, and a
// gshare predictor of another table size.
var otherSubstrate = callgrind.Options{
	L1:            cachesim.Config{Size: 4 << 10, LineSize: 32, Assoc: 2},
	LL:            cachesim.Config{Size: 256 << 10, LineSize: 128, Assoc: 4},
	Prefetch:      true,
	Gshare:        true,
	GshareHistory: 10,
	BranchTab:     512,
}

// TestCommunicationIndependentOfSubstrate pins the paper's central claim:
// communication is a property of the program, not of the simulated
// platform. Each workload is profiled under the default substrate and
// again under a different cache geometry, prefetcher and branch predictor;
// every communication aggregate and the v3 event file must match byte for
// byte, while the L1 miss total must move, which proves the second
// substrate took effect.
func TestCommunicationIndependentOfSubstrate(t *testing.T) {
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
			moved, movedFile := run(otherSubstrate)

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

// TestProfileMatchesCallgrind is the oracle of the substrate costs Sigil
// charges from its record stream: Sigil charges each load and store to its
// context on whichever goroutine classifies, while Callgrind alone charges
// it in its own callback. Every registry workload is profiled both ways in
// byte, re-use, line and event mode, and stopped by an instruction budget,
// under the default substrate and under otherSubstrate; the two profiles
// must have the same calltree, the same 13 costs at every context and the
// same instruction total. Run it at -cpu 1,2 to cover both schedules.
func TestProfileMatchesCallgrind(t *testing.T) {
	modes := []struct {
		name string
		opts Options
	}{
		{"byte", Options{}},
		{"reuse", Options{TrackReuse: true}},
		{"line", Options{LineGranularity: true}},
		{"events", Options{Events: &trace.Buffer{}}},
		{"stopped", Options{MaxInstrs: 200_000}},
	}
	substrates := []struct {
		name string
		opts callgrind.Options
	}{{"default", callgrind.Options{}}, {"other", otherSubstrate}}
	for _, name := range workloads.Names() {
		prog, input, err := workloads.Build(name, workloads.SimSmall)
		if err != nil {
			t.Fatal(err)
		}
		for _, sub := range substrates {
			for _, m := range modes {
				t.Run(name+"/"+sub.name+"/"+m.name, func(t *testing.T) {
					opts := m.opts
					opts.Substrate = sub.opts
					if opts.Events != nil {
						opts.Events = &trace.Buffer{}
					}
					res, err := Run(prog, opts, input)
					var berr *BudgetError
					if err != nil && !(opts.MaxInstrs > 0 && errors.As(err, &berr)) {
						t.Fatal(err)
					}
					want := callgrindProfile(t, prog, input, sub.opts, opts.MaxInstrs)
					assertSameProfile(t, res.Profile, want)
				})
			}
		}
	}
}

// errStopped ends a Callgrind-alone run at its instruction budget.
var errStopped = errors.New("instruction budget")

// callgrindProfile profiles prog under Callgrind alone with opts. A
// maxInstrs above 0 stops the run at the first poll point at or past it,
// where Sigil's instruction budget stops a run.
func callgrindProfile(t *testing.T, prog *vm.Program, input []byte, opts callgrind.Options, maxInstrs uint64) *callgrind.Profile {
	t.Helper()
	sub, err := callgrind.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	var stop func() error
	if maxInstrs > 0 {
		stop = func() error {
			if sub.Now() >= maxInstrs {
				return errStopped
			}
			return nil
		}
	}
	if _, err := dbi.RunContext(context.Background(), prog, sub, input, stop); err != nil && !errors.Is(err, errStopped) {
		t.Fatal(err)
	}
	return sub.Profile()
}

// assertSameProfile demands the same calltree (each context's function,
// parent, children and calls), the same costs at every context, the same
// instruction total and the same cache geometry.
func assertSameProfile(t *testing.T, got, want *callgrind.Profile) {
	t.Helper()
	if got.TotalInstrs != want.TotalInstrs {
		t.Errorf("TotalInstrs: sigil %d, callgrind %d", got.TotalInstrs, want.TotalInstrs)
	}
	if got.L1 != want.L1 || got.LL != want.LL {
		t.Errorf("caches: sigil %v/%v, callgrind %v/%v", got.L1, got.LL, want.L1, want.LL)
	}
	if len(got.Nodes) != len(want.Nodes) {
		t.Fatalf("contexts: sigil %d, callgrind %d", len(got.Nodes), len(want.Nodes))
	}
	id := func(n *callgrind.Node) int {
		if n == nil {
			return -1
		}
		return n.ID
	}
	for i, g := range got.Nodes {
		w := want.Nodes[i]
		if g.ID != w.ID || g.Fn != w.Fn || g.Name != w.Name || id(g.Parent) != id(w.Parent) || g.Calls != w.Calls {
			t.Errorf("context %d: sigil %s (fn %d, parent %d, %d calls), callgrind %s (fn %d, parent %d, %d calls)",
				i, g.Path(), g.Fn, id(g.Parent), g.Calls, w.Path(), w.Fn, id(w.Parent), w.Calls)
		}
		if len(g.Children) != len(w.Children) {
			t.Errorf("context %d (%s): sigil %d children, callgrind %d", i, g.Path(), len(g.Children), len(w.Children))
		} else {
			for k := range g.Children {
				if g.Children[k].ID != w.Children[k].ID {
					t.Errorf("context %d (%s): child %d is sigil %d, callgrind %d", i, g.Path(), k, g.Children[k].ID, w.Children[k].ID)
				}
			}
		}
		if g.Self != w.Self {
			t.Errorf("context %d (%s) costs:\nsigil     %+v\ncallgrind %+v", i, g.Path(), g.Self, w.Self)
		}
	}
}
