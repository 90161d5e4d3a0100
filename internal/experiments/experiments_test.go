package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"sigil/internal/workloads"
)

// One suite for the whole test binary: experiments share cached profiles.
var (
	testSuiteOnce sync.Once
	testSuite     *Suite
)

func suite() *Suite {
	testSuiteOnce.Do(func() {
		testSuite = NewSuite()
		testSuite.TimingReps = 1
		testSuite.Workers = 4
		// Generate the shared profile/trace matrix through the worker pool
		// (the figure tests would build the same matrix lazily one run at a
		// time); skipped under -short, where most matrix consumers skip too.
		if !testing.Short() {
			if err := testSuite.Prewarm(); err != nil {
				panic(err)
			}
		}
	})
	return testSuite
}

func TestTableIRenders(t *testing.T) {
	out := TableI().Render()
	for _, want := range []string{"last writer", "last reader call", "re-use count", "re-use lifetime start"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q", want)
		}
	}
}

func TestFigure4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	r, err := suite().Figure4()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(workloads.Names()) {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// The paper's shape: Sigil slower than Callgrind slower than native.
	// Individual rows can be noisy; the mean must hold, and no row may
	// invert Sigil vs native.
	var sigil, cg float64
	for _, row := range r.Rows {
		sigil += row.SigilVsNative()
		cg += row.CallgrindVsNative()
		if row.SigilVsNative() <= 1 {
			t.Errorf("%s: sigil not slower than native (%.2f)", row.Name, row.SigilVsNative())
		}
	}
	if sigil <= cg {
		t.Errorf("mean sigil slowdown %.2f not above callgrind %.2f", sigil, cg)
	}
	if !strings.Contains(r.Render(), "Figure 4") {
		t.Error("render missing title")
	}
}

func TestFigure5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	r, err := suite().Figure5()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Small) != len(r.Medium) || len(r.Small) == 0 {
		t.Fatal("row mismatch")
	}
	// Sigil-over-Callgrind stays roughly consistent across input sizes
	// (the paper's observation); allow generous noise.
	var sSmall, sMed float64
	for i := range r.Small {
		sSmall += r.Small[i].SigilVsCallgrind()
		sMed += r.Medium[i].SigilVsCallgrind()
	}
	ratio := sMed / sSmall
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("slowdown inconsistent across sizes: mean ratio %.2f", ratio)
	}
}

func TestFigure6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	r, err := suite().Figure6()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]uint64{}
	med := map[string]uint64{}
	for i := range r.Small {
		byName[r.Small[i].Name] = r.Small[i].ShadowPeak
		med[r.Medium[i].Name] = r.Medium[i].ShadowPeak
		if r.Small[i].ShadowPeak == 0 {
			t.Errorf("%s: zero shadow footprint", r.Small[i].Name)
		}
	}
	// dedup is the big-footprint workload needing the FIFO limit.
	if byName["dedup"] <= byName["canneal"] {
		t.Errorf("dedup shadow (%d) not above canneal (%d)", byName["dedup"], byName["canneal"])
	}
	// Larger inputs never shrink the footprint of the streaming workloads.
	if med["dedup"] < byName["dedup"] {
		t.Errorf("dedup simmedium shadow below simsmall")
	}
}

func TestFigure7Shape(t *testing.T) {
	r, err := suite().Figure7()
	if err != nil {
		t.Fatal(err)
	}
	cov := map[string]float64{}
	for _, row := range r.Rows {
		cov[row.Name] = row.Coverage
		if row.Coverage < 0 || row.Coverage > 1 {
			t.Errorf("%s coverage %.2f out of range", row.Name, row.Coverage)
		}
	}
	// The paper's exceptions: canneal, ferret and swaptions show low
	// coverage; the bulk of the suite spends >50% in candidate leaves.
	for _, low := range []string{"canneal", "ferret", "swaptions"} {
		if cov[low] >= 0.55 {
			t.Errorf("%s coverage %.2f, want the paper's low-coverage shape", low, cov[low])
		}
	}
	high := 0
	for name, c := range cov {
		if name == "canneal" || name == "ferret" || name == "swaptions" {
			continue
		}
		if c > 0.5 {
			high++
		}
	}
	if high < 9 {
		t.Errorf("only %d/11 remaining workloads above 50%% coverage", high)
	}
}

func TestTableIIShape(t *testing.T) {
	r, err := suite().TableII(5)
	if err != nil {
		t.Fatal(err)
	}
	contains := func(bm, fn string) bool {
		for _, row := range r.Rows[bm] {
			if row.Function == fn {
				return true
			}
		}
		return false
	}
	// Membership spot checks against the paper's Table II.
	checks := map[string][]string{
		"blackscholes": {"strtof", "_ieee754_exp"},
		"bodytrack":    {"ImageMeasurements::ImageErrorInside", "_ieee754_log"},
		"canneal":      {"std::string::compare", "memchr"},
		"dedup":        {"sha1_block_data_order", "adler32"},
	}
	for bm, fns := range checks {
		for _, fn := range fns {
			if !contains(bm, fn) {
				t.Errorf("Table II %s missing %s: %+v", bm, fn, r.Rows[bm])
			}
		}
	}
	// Top candidates sit near breakeven 1 (the paper: "close to 1").
	for bm, rows := range r.Rows {
		if len(rows) == 0 {
			t.Errorf("%s has no candidates", bm)
			continue
		}
		if rows[0].Breakeven > 1.05 {
			t.Errorf("%s best breakeven %.3f, want ≈1", bm, rows[0].Breakeven)
		}
	}
}

func TestTableIIIShape(t *testing.T) {
	r, err := suite().TableIII(5)
	if err != nil {
		t.Fatal(err)
	}
	// The worst blackscholes candidate is dl_addr (the paper's Table III)
	// and the bodytrack tail is utility plumbing.
	bs := r.Rows["blackscholes"]
	if len(bs) == 0 || bs[0].Function != "dl_addr" {
		t.Errorf("blackscholes worst = %+v, want dl_addr first", bs)
	}
	bt := r.Rows["bodytrack"]
	if len(bt) == 0 || bt[0].Function != "__gnu_cxx::__normal_iterator" {
		t.Errorf("bodytrack worst = %+v, want __gnu_cxx first", bt)
	}
	// Worst entries must be meaningfully above 1.
	if len(bt) > 0 && bt[0].Breakeven < 1.2 {
		t.Errorf("bodytrack worst breakeven %.3f too good", bt[0].Breakeven)
	}
}

func TestFigure8Shape(t *testing.T) {
	r, err := suite().Figure8()
	if err != nil {
		t.Fatal(err)
	}
	zero := map[string]float64{}
	for _, row := range r.Rows {
		zero[row.Name] = row.Zero
		if row.Episodes == 0 {
			t.Errorf("%s: no episodes", row.Name)
		}
	}
	// The paper: intermediate data is mostly consumed once; blackscholes
	// and streamcluster take almost no advantage of re-use.
	for _, name := range []string{"blackscholes", "streamcluster"} {
		if zero[name] < 0.9 {
			t.Errorf("%s zero-reuse %.2f, want > 0.9", name, zero[name])
		}
	}
	dominant := 0
	for _, z := range zero {
		if z > 0.5 {
			dominant++
		}
	}
	if dominant < 10 {
		t.Errorf("only %d/14 workloads dominated by zero re-use", dominant)
	}
}

func TestFigure9Through11Shape(t *testing.T) {
	s := suite()
	f9, err := s.Figure9(8)
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]Figure9Row{}
	for _, row := range f9.Rows {
		byLabel[row.Label] = row
	}
	conv, okC := byLabel["conv_gen(1)"]
	imb, okI := byLabel["imb_XYZ2Lab"]
	if !okC || !okI {
		t.Fatalf("Fig 9 rows missing conv_gen(1)/imb_XYZ2Lab: %+v", f9.Rows)
	}
	// The paper: conv_gen has the highest average lifetime,
	// imb_XYZ2Lab the smallest among the top contributors.
	if conv.AvgLifetime <= imb.AvgLifetime {
		t.Errorf("conv_gen lifetime %.0f not above imb %.0f", conv.AvgLifetime, imb.AvgLifetime)
	}

	f10, err := s.Figure10()
	if err != nil {
		t.Fatal(err)
	}
	f11, err := s.Figure11()
	if err != nil {
		t.Fatal(err)
	}
	// Fig 10: central peak away from zero plus a long tail;
	// Fig 11: peak at zero with a short tail.
	if f10.Shape.PeakBin == 0 {
		t.Errorf("conv_gen peak at bin 0; want a central peak (hist %v)", f10.Hist)
	}
	if f10.Shape.TailBin < 10 {
		t.Errorf("conv_gen tail bin %d, want a long tail", f10.Shape.TailBin)
	}
	if f11.Shape.PeakBin != 0 {
		t.Errorf("imb peak bin %d, want 0", f11.Shape.PeakBin)
	}
	if f11.Shape.TailBin > 5 {
		t.Errorf("imb tail bin %d, want short", f11.Shape.TailBin)
	}
	if f10.Shape.TailBin <= f11.Shape.TailBin {
		t.Error("conv_gen tail not longer than imb's")
	}
}

func TestFigure12Shape(t *testing.T) {
	r, err := suite().Figure12()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(workloads.Names()) {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		var sum float64
		for _, b := range row.Buckets {
			sum += b
		}
		if row.Total == 0 || sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: %d lines, buckets sum %.3f", row.Name, row.Total, sum)
		}
	}
}

func TestFigure13Shape(t *testing.T) {
	r, err := suite().Figure13()
	if err != nil {
		t.Fatal(err)
	}
	par := map[string]float64{}
	for _, row := range r.Rows {
		par[row.Name] = row.Parallelism
		if row.CriticalOps == 0 || row.CriticalOps > row.SerialOps {
			t.Errorf("%s: critical %d vs serial %d", row.Name, row.CriticalOps, row.SerialOps)
		}
	}
	// The paper's §IV-C shapes: streamcluster and libquantum have high
	// theoretical parallelism from many short paths; fluidanimate is
	// ComputeForces-bound with essentially none.
	if par["streamcluster"] < 10 {
		t.Errorf("streamcluster parallelism %.1f, want high", par["streamcluster"])
	}
	if par["libquantum"] < 4 {
		t.Errorf("libquantum parallelism %.1f, want high", par["libquantum"])
	}
	if par["fluidanimate"] > 1.3 {
		t.Errorf("fluidanimate parallelism %.1f, want ≈1", par["fluidanimate"])
	}
}

func TestCriticalPathChains(t *testing.T) {
	chains, err := suite().CriticalPathChains()
	if err != nil {
		t.Fatal(err)
	}
	sc := strings.Join(chains["streamcluster"], " -> ")
	want := "drand48_iterate -> nrand48_r -> lrand48 -> pkmedian -> localSearch -> streamCluster -> main"
	if sc != want {
		t.Errorf("streamcluster chain = %q,\nwant %q (§IV-C)", sc, want)
	}
	fl := strings.Join(chains["fluidanimate"], " -> ")
	if !strings.Contains(fl, "ComputeForces") || !strings.HasSuffix(fl, "main") {
		t.Errorf("fluidanimate chain = %q, want ComputeForces-dominated path to main", fl)
	}
}

// TestRenderChainsDeterministic re-renders the same map many times and
// demands byte-identical output: with enough keys, an implementation that
// leaked map iteration order into the text would diverge almost surely.
func TestRenderChainsDeterministic(t *testing.T) {
	chains := map[string][]string{}
	for i := 0; i < 32; i++ {
		name := fmt.Sprintf("workload%02d", i)
		chains[name] = []string{"leaf", fmt.Sprintf("mid%d", i), "main"}
	}
	first := RenderChains(chains, "chain")
	for i := 0; i < 16; i++ {
		if got := RenderChains(chains, "chain"); got != first {
			t.Fatalf("render %d differs from first render:\n%s\nvs\n%s", i, got, first)
		}
	}
	lines := strings.Split(strings.TrimSuffix(first, "\n"), "\n")
	if len(lines) != len(chains) {
		t.Fatalf("got %d lines, want %d", len(lines), len(chains))
	}
	if !sort.StringsAreSorted(lines) {
		t.Errorf("output lines are not sorted:\n%s", first)
	}
	if want := "workload07 chain: leaf -> mid7 -> main"; lines[7] != want {
		t.Errorf("line 7 = %q, want %q", lines[7], want)
	}
}

func TestProfileCaching(t *testing.T) {
	s := suite()
	a, err := s.Profile("vips", workloads.SimSmall, ModeReuse)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Profile("vips", workloads.SimSmall, ModeReuse)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("profile not cached (distinct pointers)")
	}
}

func TestDedupUsesShadowLimit(t *testing.T) {
	s := suite()
	r, err := s.Profile("dedup", workloads.SimSmall, ModeBaseline)
	if err != nil {
		t.Fatal(err)
	}
	if s.DedupShadowLimit > 0 && r.Shadow.PeakLiveChunks > uint64(s.DedupShadowLimit) {
		t.Errorf("dedup peak chunks %d above limit %d", r.Shadow.PeakLiveChunks, s.DedupShadowLimit)
	}
}

func TestFigure8InputSizeInvariance(t *testing.T) {
	// The paper: "simmedium and simlarge inputs of PARSEC have almost
	// identical distributions" to simsmall.
	diffs, err := suite().Figure8Invariance()
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range diffs {
		if d > 0.15 {
			t.Errorf("%s: reuse distribution shifts %.2f between input sizes", name, d)
		}
	}
}

func TestRenderAllContainsEveryExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	out, err := suite().RenderAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Table I:", "Figure 4:", "Figure 5:", "Figure 6:", "Figure 7:",
		"Table II:", "Table III:", "Figure 8:", "Figure 9:", "Figure 10:",
		"Figure 11:", "Figure 12:", "Figure 13:",
		"Event-file footprint", "§IV-C chain",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderAll missing %q", want)
		}
	}
}
