// Package report renders one complete Sigil analysis as a single Markdown
// document: the communication matrix, the producer→consumer edges, the
// partitioning candidates, the data-reuse characterization and the
// critical-path study — everything the paper derives from one profile, in
// the order its case studies present them.
package report

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"sigil/internal/cdfg"
	"sigil/internal/core"
	"sigil/internal/critpath"
	"sigil/internal/reuse"
	"sigil/internal/trace"
)

// Config shapes the report.
type Config struct {
	// Title heads the document (e.g. the workload name).
	Title string
	// TopFunctions bounds the per-function tables; 0 prints every row.
	TopFunctions int
	// Partition parameterizes the offload model.
	Partition cdfg.Config
	// Slots, when non-empty, adds the chain-scheduling study.
	Slots []int
}

// Write renders the report for a profile and (optionally) its event trace;
// tr may be nil, which omits the critical-path sections. Reuse sections
// appear only for re-use-mode profiles.
func Write(w io.Writer, res *core.Result, tr *trace.Trace, cfg Config) error {
	var sb strings.Builder
	p := func(format string, args ...any) {
		fmt.Fprintf(&sb, format+"\n", args...)
	}

	title := cfg.Title
	if title == "" {
		title = "Sigil analysis"
	}
	p("# %s", title)
	p("")
	p("## Overview")
	p("")
	p("| metric | value |")
	p("|---|---|")
	p("| retired instructions | %d |", res.Profile.TotalInstrs)
	p("| calling contexts | %d |", len(res.Profile.Nodes))
	p("| estimated cycles | %d |", res.Profile.TotalCycleEstimate())
	total := res.TotalCommunicated()
	p("| bytes read | %d |", total.TotalRead())
	p("| unique input bytes | %d |", total.InputUnique)
	p("| non-unique (re-read) bytes | %d |", total.InputNonUnique+total.LocalNonUnique)
	p("| program input (startup) bytes | %d |", res.StartupBytes)
	p("| syscall bytes in / out | %d / %d |", res.KernelOutBytes, res.KernelInBytes)
	p("| peak shadow memory | %.1f MiB |", float64(res.Shadow.PeakBytes)/(1<<20))
	if res.Shadow.ChunksEvicted > 0 {
		p("| shadow chunks evicted (FIFO limit) | %d |", res.Shadow.ChunksEvicted)
	}
	p("")

	writeCommMatrix(p, res, cfg.TopFunctions)
	writeEdges(p, res, cfg.TopFunctions)
	if err := writePartitioning(p, res, cfg); err != nil {
		return err
	}
	if res.Reuse != nil {
		writeReuse(p, res, cfg.TopFunctions)
	}
	if res.Lines != nil {
		writeLines(p, res)
	}
	if tr != nil {
		if err := writeCritpath(p, tr, cfg); err != nil {
			return err
		}
	}

	_, err := io.WriteString(w, sb.String())
	return err
}

func writeCommMatrix(p func(string, ...any), res *core.Result, top int) {
	p("## Function-level communication")
	p("")
	p("Bytes classified on the paper's two axes: input/output/local and")
	p("unique/non-unique (first use vs re-use by the same consumer).")
	p("")
	type row struct {
		name string
		c    core.CommStats
	}
	var rows []row
	for name, c := range res.CommByFunction() {
		if c == (core.CommStats{}) {
			continue
		}
		rows = append(rows, row{name, c})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].c.InputUnique != rows[j].c.InputUnique {
			return rows[i].c.InputUnique > rows[j].c.InputUnique
		}
		return rows[i].name < rows[j].name
	})
	if top > 0 && top < len(rows) {
		rows = rows[:top]
	}
	p("| function | in unique | in re-read | out unique | local |")
	p("|---|---|---|---|---|")
	for _, r := range rows {
		p("| %s | %d | %d | %d | %d |", r.name, r.c.InputUnique,
			r.c.InputNonUnique, r.c.OutputUnique,
			r.c.LocalUnique+r.c.LocalNonUnique)
	}
	p("")
}

func writeEdges(p func(string, ...any), res *core.Result, top int) {
	p("## Producer → consumer edges")
	p("")
	edges := make([]core.Edge, len(res.Edges))
	copy(edges, res.Edges)
	sort.Slice(edges, func(i, j int) bool { return edges[i].Unique > edges[j].Unique })
	if top > 0 && top < len(edges) {
		edges = edges[:top]
	}
	p("| producer | consumer | unique B | non-unique B |")
	p("|---|---|---|---|")
	for _, e := range edges {
		p("| %s | %s | %d | %d |", res.CtxPath(e.Src), res.CtxPath(e.Dst), e.Unique, e.NonUnique)
	}
	p("")
}

func writePartitioning(p func(string, ...any), res *core.Result, cfg Config) error {
	g, err := cdfg.Build(res, cfg.Partition)
	if err != nil {
		return err
	}
	tr := g.Trim()
	p("## HW/SW partitioning (control data flow graph)")
	p("")
	p("Candidate leaves of the trimmed calltree cover **%.1f%%** of estimated", 100*tr.Coverage())
	p("execution time (%d candidates). Breakeven speedup is the computational", len(tr.Candidates))
	p("speedup an accelerator must exceed to offset moving the sub-tree's")
	p("unique data over the bus.")
	p("")
	p("| candidate (context) | S(breakeven) | incl. cycles | ext in B | ext out B | share |")
	p("|---|---|---|---|---|---|")
	for _, c := range tr.Candidates {
		be := fmt.Sprintf("%.3f", c.Breakeven)
		if math.IsInf(c.Breakeven, 1) {
			be = "∞"
		}
		p("| %s | %s | %d | %d | %d | %.1f%% |",
			c.Path, be, c.InclCycles, c.ExtIn, c.ExtOut, 100*c.CoverageShare)
	}
	p("")
	return nil
}

func writeReuse(p func(string, ...any), res *core.Result, top int) {
	bd, err := reuse.Analyze(res)
	if err != nil {
		return
	}
	p("## Data re-use")
	p("")
	p("%d re-use episodes: **%.1f%%** zero re-use (written once, read once),",
		bd.Episodes, 100*bd.Zero)
	p("%.1f%% re-used 1–9 times, %.1f%% more than 9 times.", 100*bd.Low, 100*bd.High)
	p("")
	funcs, err := reuse.TopFunctions(res, top)
	if err != nil || len(funcs) == 0 {
		return
	}
	p("| function | reused bytes | avg lifetime (instrs) | episodes |")
	p("|---|---|---|---|")
	for _, f := range funcs {
		p("| %s | %d | %.1f | %d |", f.Name, f.ReusedBytes, f.AvgLifetime, f.Episodes)
	}
	p("")
}

func writeLines(p func(string, ...any), res *core.Result) {
	p("## Line-granularity re-use")
	p("")
	fr := res.Lines.Fractions()
	p("%d lines of %d bytes touched.", res.Lines.TotalLines, res.Lines.LineSize)
	p("")
	p("| re-used | share of lines |")
	p("|---|---|")
	for i, label := range core.BucketLabels {
		p("| %s | %.1f%% |", label, 100*fr[i])
	}
	p("")
}

func writeCritpath(p func(string, ...any), tr *trace.Trace, cfg Config) error {
	g, err := critpath.Build(tr)
	if err != nil {
		return err
	}
	a, err := g.Analyze(critpath.CommConfig{})
	if err != nil {
		return err
	}
	p("## Critical path and function-level parallelism")
	p("")
	p("Serial length %d ops; critical path %d ops over %d segments —",
		a.SerialOps, a.CriticalOps, a.Segments)
	p("maximum theoretical function-level parallelism **%.2f**.", a.Parallelism())
	p("")
	if len(a.Chain) > 0 {
		leafToMain := make([]string, len(a.Chain))
		for i, fn := range a.Chain {
			leafToMain[len(a.Chain)-1-i] = fn
		}
		p("Critical chain (leaf → main): `%s`", strings.Join(leafToMain, " → "))
		p("")
	}
	if len(cfg.Slots) > 0 {
		p("| slots | makespan | speedup | utilization | cross-slot B |")
		p("|---|---|---|---|---|")
		for _, n := range cfg.Slots {
			r, err := g.Schedule(n)
			if err != nil {
				return err
			}
			p("| %d | %d | %.2f | %.2f | %d |",
				n, r.Makespan, r.Speedup(), r.Utilization(), r.CrossSlotBytes)
		}
		p("")
	}
	return nil
}
