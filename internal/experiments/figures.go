package experiments

import (
	"fmt"
	"math"
	"strings"

	"sigil/internal/cdfg"
	"sigil/internal/workloads"
)

// TableIResult documents the live shadow-object layout (the paper's
// Table I), derived from the implementation's actual field sizes.
type TableIResult struct {
	Baseline []TableIRow
	Reuse    []TableIRow
}

// TableIRow is one shadow-object field.
type TableIRow struct {
	Variable    string
	SizeBits    int
	Description string
}

// TableI returns the shadow-object contents.
func TableI() *TableIResult {
	return &TableIResult{
		Baseline: []TableIRow{
			{"last writer", 32, "encoded context of the producing function"},
			{"last writer call", 32, "call number of the producing call"},
			{"last reader", 32, "encoded context of the last consuming function"},
			{"last reader call", 32, "call number of the last consuming call"},
		},
		Reuse: []TableIRow{
			{"re-use count", 32, "# of times the byte was re-read this episode"},
			{"re-use lifetime start", 64, "first-access timestamp (retired instructions)"},
			{"re-use lifetime finish", 64, "final-access timestamp (retired instructions)"},
		},
	}
}

// Render prints Table I.
func (t *TableIResult) Render() string {
	tb := &table{title: "Table I: Shadow object contents", headers: []string{"variable", "size", "description"}}
	tb.add("-- baseline --", "", "")
	for _, r := range t.Baseline {
		tb.add(r.Variable, fmt.Sprintf("%db", r.SizeBits), r.Description)
	}
	tb.add("-- reuse mode --", "", "")
	for _, r := range t.Reuse {
		tb.add(r.Variable, fmt.Sprintf("%db", r.SizeBits), r.Description)
	}
	return tb.String()
}

// Figure4Result holds per-workload slowdowns of Sigil and Callgrind over
// native runs (simsmall).
type Figure4Result struct {
	Rows []Timing
}

// Figure4 measures the Fig 4 series.
func (s *Suite) Figure4() (*Figure4Result, error) {
	out := &Figure4Result{}
	for _, name := range workloads.Names() {
		t, err := s.Timing(name, workloads.SimSmall)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, t)
	}
	return out, nil
}

// Render prints Fig 4.
func (r *Figure4Result) Render() string {
	tb := &table{
		title:   "Figure 4: Slowdown of Sigil and Callgrind relative to native (simsmall)",
		headers: []string{"workload", "sigil x", "callgrind x"},
	}
	var sx, cx float64
	for _, t := range r.Rows {
		tb.add(t.Name, f2(t.SigilVsNative()), f2(t.CallgrindVsNative()))
		sx += t.SigilVsNative()
		cx += t.CallgrindVsNative()
	}
	n := float64(len(r.Rows))
	if n > 0 {
		tb.add("(mean)", f2(sx/n), f2(cx/n))
	}
	return tb.String()
}

// Figure5Result holds Sigil-vs-Callgrind slowdowns for two input classes.
type Figure5Result struct {
	Small  []Timing
	Medium []Timing
}

// Figure5 measures the Fig 5 series.
func (s *Suite) Figure5() (*Figure5Result, error) {
	out := &Figure5Result{}
	for _, name := range workloads.Names() {
		ts, err := s.Timing(name, workloads.SimSmall)
		if err != nil {
			return nil, err
		}
		tm, err := s.Timing(name, workloads.SimMedium)
		if err != nil {
			return nil, err
		}
		out.Small = append(out.Small, ts)
		out.Medium = append(out.Medium, tm)
	}
	return out, nil
}

// Render prints Fig 5.
func (r *Figure5Result) Render() string {
	tb := &table{
		title:   "Figure 5: Slowdown of Sigil relative to Callgrind",
		headers: []string{"workload", "simsmall x", "simmedium x"},
	}
	for i := range r.Small {
		tb.add(r.Small[i].Name, f2(r.Small[i].SigilVsCallgrind()), f2(r.Medium[i].SigilVsCallgrind()))
	}
	return tb.String()
}

// Figure6Result holds Sigil's memory usage per workload and input class.
type Figure6Result struct {
	Small  []Timing
	Medium []Timing
}

// Figure6 measures the Fig 6 series (baseline function-level profiling).
func (s *Suite) Figure6() (*Figure6Result, error) {
	out := &Figure6Result{}
	for _, name := range workloads.Names() {
		ts, err := s.Timing(name, workloads.SimSmall)
		if err != nil {
			return nil, err
		}
		tm, err := s.Timing(name, workloads.SimMedium)
		if err != nil {
			return nil, err
		}
		out.Small = append(out.Small, ts)
		out.Medium = append(out.Medium, tm)
	}
	return out, nil
}

// Render prints Fig 6.
func (r *Figure6Result) Render() string {
	tb := &table{
		title:   "Figure 6: Memory usage for baseline function-level profiling",
		headers: []string{"workload", "simsmall", "simmedium", "program (small)"},
	}
	for i := range r.Small {
		tb.add(r.Small[i].Name, mib(r.Small[i].ShadowPeak), mib(r.Medium[i].ShadowPeak),
			mib(r.Small[i].ProgramBytes))
	}
	return tb.String()
}

// CoverageRow is one Fig 7 bar: the share of estimated execution time in
// the trimmed calltree's candidate leaves.
type CoverageRow struct {
	Name       string
	Coverage   float64
	Candidates int
}

// Figure7Result holds the coverage bars.
type Figure7Result struct {
	Rows []CoverageRow
}

// Figure7 runs the partitioning heuristic on every workload.
func (s *Suite) Figure7() (*Figure7Result, error) {
	out := &Figure7Result{}
	for _, name := range workloads.Names() {
		tr, err := s.trimmed(name)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, CoverageRow{
			Name:       name,
			Coverage:   tr.Coverage(),
			Candidates: len(tr.Candidates),
		})
	}
	return out, nil
}

func (s *Suite) trimmed(name string) (*cdfg.Trimmed, error) {
	r, err := s.Profile(name, workloads.SimSmall, ModeBaseline)
	if err != nil {
		return nil, err
	}
	g, err := cdfg.Build(r, cdfg.Config{})
	if err != nil {
		return nil, fmt.Errorf("experiments: cdfg for %s: %w", name, err)
	}
	return g.Trim(), nil
}

// Render prints Fig 7.
func (r *Figure7Result) Render() string {
	tb := &table{
		title:   "Figure 7: Normalized coverage of trimmed-calltree leaf nodes (simsmall)",
		headers: []string{"workload", "coverage", "rest", "candidates"},
	}
	for _, row := range r.Rows {
		tb.add(row.Name, pct(row.Coverage), pct(1-row.Coverage), fmt.Sprintf("%d", row.Candidates))
	}
	return tb.String()
}

// BreakevenRow is one Table II / Table III entry.
type BreakevenRow struct {
	Function  string
	Breakeven float64
}

// BreakevenTable holds the per-benchmark candidate rankings.
type BreakevenTable struct {
	Title      string
	Benchmarks []string
	Rows       map[string][]BreakevenRow // benchmark -> ranked functions
}

// TableIIBenchmarks are the four benchmarks the paper tabulates.
var TableIIBenchmarks = []string{"blackscholes", "bodytrack", "canneal", "dedup"}

// TableII ranks the k best acceleration candidates per benchmark.
func (s *Suite) TableII(k int) (*BreakevenTable, error) {
	return s.breakevenTable("Table II: Breakeven speedup for top functions (simsmall)", k, true)
}

// TableIII ranks the k worst candidates per benchmark (worst first).
func (s *Suite) TableIII(k int) (*BreakevenTable, error) {
	return s.breakevenTable("Table III: Breakeven speedup for worst functions (simsmall)", k, false)
}

func (s *Suite) breakevenTable(title string, k int, top bool) (*BreakevenTable, error) {
	out := &BreakevenTable{Title: title, Benchmarks: TableIIBenchmarks, Rows: map[string][]BreakevenRow{}}
	for _, name := range TableIIBenchmarks {
		tr, err := s.trimmed(name)
		if err != nil {
			return nil, err
		}
		cands := tr.TopByBreakeven(len(tr.Candidates))
		if !top {
			cands = tr.BottomByBreakeven(k)
		} else {
			cands = tr.TopByBreakeven(k)
		}
		for _, c := range cands {
			out.Rows[name] = append(out.Rows[name], BreakevenRow{Function: c.Name, Breakeven: c.Breakeven})
		}
	}
	return out, nil
}

// Render prints a breakeven table in the paper's benchmark-column layout.
func (t *BreakevenTable) Render() string {
	tb := &table{title: t.Title}
	for _, bm := range t.Benchmarks {
		tb.headers = append(tb.headers, bm, "S(breakeven)")
	}
	depth := 0
	for _, bm := range t.Benchmarks {
		if n := len(t.Rows[bm]); n > depth {
			depth = n
		}
	}
	for i := 0; i < depth; i++ {
		var cells []string
		for _, bm := range t.Benchmarks {
			rows := t.Rows[bm]
			if i < len(rows) {
				be := f3(rows[i].Breakeven)
				if math.IsInf(rows[i].Breakeven, 1) {
					be = "inf"
				}
				cells = append(cells, clip(rows[i].Function, 28), be)
			} else {
				cells = append(cells, "", "")
			}
		}
		tb.add(cells...)
	}
	return tb.String()
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

// Experiment is one table or figure the experiments command prints.
type Experiment struct {
	Name    string // the -only name
	Default bool   // printed by the full run
	Render  func(s *Suite) (string, error)
}

func render[R interface{ Render() string }](r R, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}

// Experiments lists every experiment once, in the order the full run
// prints them, with the arguments it prints them at.
var Experiments = []Experiment{
	{"table1", true, func(*Suite) (string, error) { return TableI().Render(), nil }},
	{"fig4", true, func(s *Suite) (string, error) { return render(s.Figure4()) }},
	{"fig5", true, func(s *Suite) (string, error) { return render(s.Figure5()) }},
	{"fig6", true, func(s *Suite) (string, error) { return render(s.Figure6()) }},
	{"fig7", true, func(s *Suite) (string, error) { return render(s.Figure7()) }},
	{"table2", true, func(s *Suite) (string, error) { return render(s.TableII(5)) }},
	{"table3", true, func(s *Suite) (string, error) { return render(s.TableIII(5)) }},
	{"fig8", true, func(s *Suite) (string, error) { return render(s.Figure8()) }},
	{"fig9", true, func(s *Suite) (string, error) { return render(s.Figure9(8)) }},
	{"fig10", true, func(s *Suite) (string, error) { return render(s.Figure10()) }},
	{"fig11", true, func(s *Suite) (string, error) { return render(s.Figure11()) }},
	{"fig12", true, func(s *Suite) (string, error) { return render(s.Figure12()) }},
	{"fig13", true, func(s *Suite) (string, error) { return render(s.Figure13()) }},
	{"telemetry", true, func(s *Suite) (string, error) { return render(s.RunTelemetry()) }},
	{"schedule", false, func(s *Suite) (string, error) { return render(s.ScheduleCurve([]int{2, 4, 8, 16})) }},
	{"commaware", false, func(s *Suite) (string, error) { return render(s.CommAwareCurve(0.25)) }},
	{"memlimit", false, func(s *Suite) (string, error) { return render(s.MemoryLimitAccuracy("dedup", 12)) }},
	{"offload", false, func(s *Suite) (string, error) { return render(s.OffloadStudy(10)) }},
	{"eventfile", true, func(s *Suite) (string, error) { return render(s.EventFileStats()) }},
	{"chains", true, func(s *Suite) (string, error) {
		chains, err := s.CriticalPathChains()
		if err != nil {
			return "", err
		}
		return RenderChains(chains, "§IV-C chain"), nil
	}},
}

// RenderAll renders the full run's experiments in order, each followed by
// a blank line — the cmd/experiments entry point.
func (s *Suite) RenderAll() (string, error) {
	var sb strings.Builder
	for _, e := range Experiments {
		if !e.Default {
			continue
		}
		out, err := e.Render(s)
		if err != nil {
			return sb.String(), fmt.Errorf("%s: %w", e.Name, err)
		}
		sb.WriteString(out)
		sb.WriteByte('\n')
	}
	return sb.String(), nil
}
