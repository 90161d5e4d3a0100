// Package cdfg post-processes Sigil profiles into control data flow graphs —
// calltrees whose nodes are calling contexts and whose dashed edges are data
// dependencies weighted by unique communicated bytes — and implements the
// paper's hardware/software partitioning case study: sub-tree merging with
// inclusive costs, the breakeven-speedup metric (Eq. 1), and the
// max-coverage / min-communication trim heuristic.
package cdfg

import (
	"fmt"
	"math"
	"sort"

	"sigil/internal/core"
)

// Config parameterizes the partitioning model.
type Config struct {
	// BytesPerCycle is the assumed SoC bus bandwidth used to convert
	// offloaded bytes into communication time (default 8 bytes/cycle).
	BytesPerCycle float64

	// MaxBreakeven excludes candidates whose breakeven speedup exceeds
	// it from coverage and candidate lists (0 means "any finite value").
	MaxBreakeven float64

	// MinCycles is a noise floor: sub-trees with fewer inclusive
	// estimated cycles are never candidates (default 0).
	MinCycles uint64

	// AllowSilent admits candidates whose merged sub-tree exchanges no
	// external unique bytes at all. By default such nodes (e.g. a PRNG
	// whose state never leaves it) are skipped: a communication-aware
	// selector has nothing to say about them, and their breakeven of
	// exactly 1.0 would crowd out every real candidate.
	AllowSilent bool
}

func (c Config) withDefaults() Config {
	if c.BytesPerCycle == 0 {
		c.BytesPerCycle = 8
	}
	return c
}

// Node is one CDFG node: a calling context annotated with self and
// inclusive costs and the external unique communication its merged sub-tree
// would incur.
type Node struct {
	Ctx      int32
	Name     string
	Path     string
	Parent   *Node
	Children []*Node
	Calls    uint64

	SelfCycles uint64 // Callgrind cycle estimate for the context alone
	InclCycles uint64 // cycle estimate for the whole sub-tree
	SelfOps    uint64
	InclOps    uint64

	// ExtIn / ExtOut are the unique bytes crossing the sub-tree boundary
	// inward and outward: the data an accelerator implementing the whole
	// sub-tree would have to move (Fig 2's boxes).
	ExtIn  uint64
	ExtOut uint64

	// Breakeven is Eq. 1 for the merged sub-tree: the computational
	// speedup an accelerator must beat to offset data offload time.
	// +Inf means offload time alone exceeds software time.
	Breakeven float64

	tin, tout int // DFS interval for O(1) subtree membership
}

// InSubtree reports whether x lies in n's sub-tree (including n itself).
func (n *Node) InSubtree(x *Node) bool {
	return x != nil && n.tin <= x.tin && x.tin < n.tout
}

// Graph is the control data flow graph for one profile.
type Graph struct {
	Config Config
	Result *core.Result
	Root   *Node
	Nodes  []*Node // indexed by context ID
	Edges  []core.Edge
}

// Build constructs the CDFG from a Sigil profile, computing inclusive costs,
// external unique communication per sub-tree, and breakeven speedups.
func Build(r *core.Result, cfg Config) (*Graph, error) {
	cfg = cfg.withDefaults()
	if cfg.BytesPerCycle <= 0 {
		return nil, fmt.Errorf("cdfg: BytesPerCycle must be positive")
	}
	prof := r.Profile
	if prof == nil || prof.Root == nil {
		return nil, fmt.Errorf("cdfg: profile has no calltree")
	}
	g := &Graph{Config: cfg, Result: r, Edges: r.Edges}
	g.Nodes = make([]*Node, len(prof.Nodes))
	for i, pn := range prof.Nodes {
		g.Nodes[i] = &Node{
			Ctx:   int32(i),
			Name:  pn.Name,
			Path:  pn.Path(),
			Calls: pn.Calls,
		}
		g.Nodes[i].SelfCycles = pn.Self.CycleEstimate()
		g.Nodes[i].SelfOps = pn.Self.Ops()
	}
	for i, pn := range prof.Nodes {
		n := g.Nodes[i]
		if pn.Parent != nil {
			n.Parent = g.Nodes[pn.Parent.ID]
			n.Parent.Children = append(n.Parent.Children, n)
		}
	}
	g.Root = g.Nodes[prof.Root.ID]

	// DFS numbering + inclusive costs (iterative to tolerate deep trees).
	clock := 0
	var dfs func(n *Node)
	dfs = func(n *Node) {
		n.tin = clock
		clock++
		n.InclCycles = n.SelfCycles
		n.InclOps = n.SelfOps
		for _, c := range n.Children {
			dfs(c)
			n.InclCycles += c.InclCycles
			n.InclOps += c.InclOps
		}
		n.tout = clock
	}
	dfs(g.Root)

	// External unique communication per sub-tree: an edge contributes to
	// node n when exactly one endpoint lies inside n's sub-tree. Edges
	// from @startup / @kernel are always external sources.
	for _, n := range g.Nodes {
		for _, e := range g.Edges {
			src := g.nodeFor(e.Src)
			dst := g.nodeFor(e.Dst)
			srcIn := src != nil && n.InSubtree(src)
			dstIn := dst != nil && n.InSubtree(dst)
			switch {
			case dstIn && !srcIn:
				n.ExtIn += e.Unique
			case srcIn && !dstIn:
				n.ExtOut += e.Unique
			}
		}
		n.Breakeven = breakeven(n.InclCycles, n.ExtIn+n.ExtOut, cfg.BytesPerCycle)
	}
	return g, nil
}

func (g *Graph) nodeFor(ctx int32) *Node {
	if ctx >= 0 && int(ctx) < len(g.Nodes) {
		return g.Nodes[ctx]
	}
	return nil // synthetic producers are outside every sub-tree
}

// breakeven implements Eq. 1: S = tsw / (tsw − (t_in + t_out)), with times
// in cycles and communication converted through the bus bandwidth.
func breakeven(inclCycles, extBytes uint64, bytesPerCycle float64) float64 {
	tsw := float64(inclCycles)
	if tsw == 0 {
		return math.Inf(1)
	}
	tcomm := float64(extBytes) / bytesPerCycle
	if tcomm >= tsw {
		return math.Inf(1)
	}
	return tsw / (tsw - tcomm)
}

// Candidate is a selected leaf of the trimmed calltree: a merged sub-tree
// proposed for hardware acceleration.
type Candidate struct {
	*Node
	// CoverageShare is the candidate's inclusive estimated time as a
	// fraction of whole-program time (its Amdahl ceiling).
	CoverageShare float64
}

// Trimmed is the result of the max-coverage / min-communication heuristic.
type Trimmed struct {
	Graph *Graph
	// Candidates are the trimmed tree's viable leaves, sorted by
	// ascending breakeven speedup (Table II order).
	Candidates []Candidate
	// Merged marks, per context ID, whether the context was merged into
	// a candidate sub-tree (its own or an ancestor's).
	Merged []bool
	// CoveredCycles / TotalCycles give Fig 7's coverage split.
	CoveredCycles uint64
	TotalCycles   uint64
}

// Trim applies the heuristic: post-order, a node becomes a merged candidate
// leaf when its own merged-sub-tree breakeven is strictly better than the
// best achievable anywhere below it — so every branch of the trimmed tree
// ends at its minimum-breakeven point, and ties descend toward the leaves
// (an ancestor must actually *improve* on its descendants to absorb them).
// The root is never a candidate (merging main is the whole program).
func (g *Graph) Trim() *Trimmed {
	t := &Trimmed{Graph: g, Merged: make([]bool, len(g.Nodes))}
	t.TotalCycles = g.Root.InclCycles
	limit := g.Config.MaxBreakeven
	if limit <= 0 {
		limit = math.Inf(1)
	}

	var visit func(n *Node)
	visit = func(n *Node) {
		if n != g.Root && n.viable(g.Config) && n.Breakeven < n.bestBelow(g.Config) {
			t.markMerged(n)
			t.Candidates = append(t.Candidates, Candidate{Node: n})
			return
		}
		for _, c := range n.Children {
			visit(c)
		}
	}
	visit(g.Root)

	kept := t.Candidates[:0]
	for _, c := range t.Candidates {
		if c.Breakeven <= limit {
			c.CoverageShare = float64(c.InclCycles) / float64(max64(t.TotalCycles, 1))
			t.CoveredCycles += c.InclCycles
			kept = append(kept, c)
		}
	}
	t.Candidates = kept
	sort.SliceStable(t.Candidates, func(i, j int) bool {
		if t.Candidates[i].Breakeven != t.Candidates[j].Breakeven {
			return t.Candidates[i].Breakeven < t.Candidates[j].Breakeven
		}
		return t.Candidates[i].InclCycles > t.Candidates[j].InclCycles
	})
	return t
}

// viable reports whether a node can be a candidate at all.
func (n *Node) viable(cfg Config) bool {
	if math.IsInf(n.Breakeven, 1) || n.InclCycles < cfg.MinCycles {
		return false
	}
	return cfg.AllowSilent || n.ExtIn+n.ExtOut > 0
}

// bestBelow returns the minimum breakeven among viable strict descendants
// (+Inf when none).
func (n *Node) bestBelow(cfg Config) float64 {
	best := math.Inf(1)
	for _, c := range n.Children {
		if c.viable(cfg) && c.Breakeven < best {
			best = c.Breakeven
		}
		if b := c.bestBelow(cfg); b < best {
			best = b
		}
	}
	return best
}

func (t *Trimmed) markMerged(n *Node) {
	t.Merged[n.Ctx] = true
	for _, c := range n.Children {
		t.markMerged(c)
	}
}

// Coverage returns the fraction of whole-program estimated time spent in
// candidate leaves — the lower bar of the paper's Figure 7.
func (t *Trimmed) Coverage() float64 {
	if t.TotalCycles == 0 {
		return 0
	}
	return float64(t.CoveredCycles) / float64(t.TotalCycles)
}

// TopByBreakeven returns the k best candidates (Table II rows).
func (t *Trimmed) TopByBreakeven(k int) []Candidate {
	if k > len(t.Candidates) {
		k = len(t.Candidates)
	}
	return t.Candidates[:k]
}

// BottomByBreakeven returns the k worst candidates, worst last removed —
// i.e. the k largest breakevens in ascending order (Table III rows list
// them descending from the worst; callers render as needed).
func (t *Trimmed) BottomByBreakeven(k int) []Candidate {
	n := len(t.Candidates)
	if k > n {
		k = n
	}
	out := make([]Candidate, k)
	copy(out, t.Candidates[n-k:])
	// Present worst-first, matching Table III's top-to-bottom order.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
