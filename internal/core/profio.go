package core

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
	"strings"

	"sigil/internal/callgrind"
)

// Profile file format: a line-oriented text serialization of a Result, so
// collected profiles can be post-processed (partitioned, reuse-analyzed)
// without re-running the workload — the paper's plan to release profile
// data for common benchmarks, usable without running Sigil. The format is
// versioned and self-describing; unknown record types are rejected.
//
// v2 appends an end-of-stream footer, `end <records> <crc32>`, checksumming
// every record line, so a truncated or bit-flipped profile is detected at
// read time instead of silently under-reporting.

const (
	profileMagic = "# sigil profile v2"

	// maxProfileID bounds context ids so a corrupt or adversarial
	// profile cannot make the reader allocate unbounded slices.
	maxProfileID = 1 << 20

	// maxHistBins bounds the lifetime-histogram bins the reader allocates
	// for a whole profile (32 MiB of counts). Real profiles hold far
	// fewer: canneal simlarge in re-use mode, the largest, holds 26,031.
	maxHistBins = 1 << 22
)

// ErrProfileTruncated reports a profile that ended before its footer;
// ErrProfileCorrupt reports a footer that disagrees with the records read.
var (
	ErrProfileTruncated = errors.New("core: profile truncated (missing end record)")
	ErrProfileCorrupt   = errors.New("core: profile corrupt (footer mismatch)")
)

// WriteProfile serializes r to w in v2 format.
func WriteProfile(w io.Writer, r *Result) error {
	bw := bufio.NewWriter(w)
	var (
		crc     uint32
		records uint64
	)
	p := func(format string, args ...any) {
		line := fmt.Sprintf(format+"\n", args...)
		crc = crc32.Update(crc, crc32.IEEETable, []byte(line))
		records++
		bw.WriteString(line)
	}
	fmt.Fprintln(bw, profileMagic)
	p("total %d", r.Profile.TotalInstrs)
	if r.Profile.Root != nil {
		p("root %d", r.Profile.Root.ID)
	}
	for _, n := range r.Profile.Nodes {
		parent := -1
		if n.Parent != nil {
			parent = n.Parent.ID
		}
		p("ctx %d %d %d %s", n.ID, parent, n.Calls, quote(n.Name))
		c := n.Self
		p("cost %d %d %d %d %d %d %d %d %d %d %d %d %d %d",
			n.ID, c.Instrs, c.IntOps, c.FPOps, c.Reads, c.Writes,
			c.ReadBytes, c.WriteBytes, c.L1Misses, c.LLMisses,
			c.Branches, c.Mispredict, c.SysIn, c.SysOut)
	}
	for id, c := range r.Comm {
		if c == (CommStats{}) {
			continue
		}
		p("comm %d %d %d %d %d %d %d", id,
			c.InputUnique, c.InputNonUnique, c.OutputUnique,
			c.OutputNonUnique, c.LocalUnique, c.LocalNonUnique)
	}
	for _, e := range r.Edges {
		p("edge %d %d %d %d", e.Src, e.Dst, e.Unique, e.NonUnique)
	}
	for id := range r.Reuse {
		s := &r.Reuse[id]
		if s.Episodes == 0 {
			continue
		}
		p("reuse %d %d %d %d %d %d %d %d", id, s.Episodes, s.ZeroReuse,
			s.Low, s.High, s.ReusedBytes, s.SumReuseCount, s.SumLifetime)
		for bin, v := range s.LifetimeHist {
			if v != 0 {
				p("rhist %d %d %d", id, bin, v)
			}
		}
	}
	if r.Lines != nil {
		p("lines %d %d %d %d %d %d %d", r.Lines.LineSize, r.Lines.TotalLines,
			r.Lines.Buckets[0], r.Lines.Buckets[1], r.Lines.Buckets[2],
			r.Lines.Buckets[3], r.Lines.Buckets[4])
	}
	sh := r.Shadow
	p("shadow %d %d %d %d %d %d", sh.ChunksAllocated, sh.ChunksLive,
		sh.ChunksEvicted, sh.PeakLiveChunks, sh.BytesPerChunk, sh.GranuleBytes)
	p("external %d %d %d", r.StartupBytes, r.KernelOutBytes, r.KernelInBytes)
	fmt.Fprintf(bw, "end %d %d\n", records, crc)
	return bw.Flush()
}

// ReadProfileFile opens and parses a profile file.
func ReadProfileFile(path string) (*Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r, err := ReadProfile(f)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return r, nil
}

func quote(s string) string { return strconv.Quote(s) }

// ReadProfile parses a profile written by WriteProfile and verifies its
// footer. The reconstructed Result carries the full calltree and all
// statistics; the Program pointer is nil (the binary itself is not part of
// a profile). A stream that ends before its footer returns
// ErrProfileTruncated; a footer that disagrees with the records returns
// ErrProfileCorrupt.
func ReadProfile(r io.Reader) (*Result, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("core: empty profile")
	}
	if strings.TrimSpace(sc.Text()) != profileMagic {
		return nil, fmt.Errorf("core: not a sigil profile (bad header)")
	}
	res := &Result{Profile: &callgrind.Profile{}}
	parents := map[int]int{}
	rootID := -1
	lineNo := 1
	var (
		crc        uint32
		records    uint64
		footerSeen bool
		histBins   int
	)
	// declared resolves the id of a cost, comm, reuse or rhist record to a
	// context an earlier ctx record declared (WriteProfile writes every
	// ctx first), so those records cannot size per-context slices past
	// the calltree.
	declared := func(v uint64) (int, error) {
		if v >= uint64(len(res.Profile.Nodes)) || res.Profile.Nodes[v] == nil {
			return 0, fmt.Errorf("undeclared context %d", v)
		}
		return int(v), nil
	}
	for sc.Scan() {
		lineNo++
		raw := sc.Text()
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if footerSeen {
			return nil, fmt.Errorf("%w: record after end on line %d", ErrProfileCorrupt, lineNo)
		}
		if fields[0] == "end" {
			if len(fields) != 3 {
				return nil, fmt.Errorf("%w: malformed end record", ErrProfileCorrupt)
			}
			wantN, err1 := strconv.ParseUint(fields[1], 10, 64)
			wantCRC, err2 := strconv.ParseUint(fields[2], 10, 32)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("%w: malformed end record", ErrProfileCorrupt)
			}
			if wantN != records || uint32(wantCRC) != crc {
				return nil, fmt.Errorf("%w: footer says %d records crc %#x, stream has %d records crc %#x",
					ErrProfileCorrupt, wantN, uint32(wantCRC), records, crc)
			}
			footerSeen = true
			continue
		}
		crc = crc32.Update(crc, crc32.IEEETable, []byte(raw))
		crc = crc32.Update(crc, crc32.IEEETable, []byte{'\n'})
		records++
		bad := func(err error) error {
			return fmt.Errorf("core: profile line %d (%s): %v", lineNo, fields[0], err)
		}
		nums := func(from, n int) ([]uint64, error) {
			if len(fields) < from+n {
				return nil, fmt.Errorf("want %d numbers, got %d fields", n, len(fields)-from)
			}
			out := make([]uint64, n)
			for i := 0; i < n; i++ {
				v, err := strconv.ParseUint(fields[from+i], 10, 64)
				if err != nil {
					return nil, err
				}
				out[i] = v
			}
			return out, nil
		}
		ints := func(from, n int) ([]int64, error) {
			if len(fields) < from+n {
				return nil, fmt.Errorf("want %d numbers, got %d fields", n, len(fields)-from)
			}
			out := make([]int64, n)
			for i := 0; i < n; i++ {
				v, err := strconv.ParseInt(fields[from+i], 10, 64)
				if err != nil {
					return nil, err
				}
				out[i] = v
			}
			return out, nil
		}

		switch fields[0] {
		case "total":
			v, err := nums(1, 1)
			if err != nil {
				return nil, bad(err)
			}
			res.Profile.TotalInstrs = v[0]
		case "root":
			v, err := ints(1, 1)
			if err != nil {
				return nil, bad(err)
			}
			rootID = int(v[0])
		case "ctx":
			v, err := ints(1, 3)
			if err != nil {
				return nil, bad(err)
			}
			nameStart := strings.Index(line, `"`)
			if nameStart < 0 {
				return nil, bad(fmt.Errorf("missing quoted name"))
			}
			name, err := strconv.Unquote(line[nameStart:])
			if err != nil {
				return nil, bad(err)
			}
			if v[0] < 0 || v[0] >= maxProfileID {
				return nil, bad(fmt.Errorf("context id %d out of range", v[0]))
			}
			if v[1] < -1 || v[1] >= maxProfileID {
				return nil, bad(fmt.Errorf("parent id %d out of range", v[1]))
			}
			if v[2] < 0 {
				return nil, bad(fmt.Errorf("negative call count %d", v[2]))
			}
			id := int(v[0])
			for len(res.Profile.Nodes) <= id {
				res.Profile.Nodes = append(res.Profile.Nodes, nil)
			}
			res.Profile.Nodes[id] = &callgrind.Node{
				ID: id, Name: name, Calls: uint64(v[2]),
			}
			parents[id] = int(v[1])
		case "cost":
			v, err := nums(1, 14)
			if err != nil {
				return nil, bad(err)
			}
			id, err := declared(v[0])
			if err != nil {
				return nil, bad(err)
			}
			res.Profile.Nodes[id].Self = callgrind.Costs{
				Instrs: v[1], IntOps: v[2], FPOps: v[3], Reads: v[4],
				Writes: v[5], ReadBytes: v[6], WriteBytes: v[7],
				L1Misses: v[8], LLMisses: v[9], Branches: v[10],
				Mispredict: v[11], SysIn: v[12], SysOut: v[13],
			}
		case "comm":
			v, err := nums(1, 7)
			if err != nil {
				return nil, bad(err)
			}
			id, err := declared(v[0])
			if err != nil {
				return nil, bad(err)
			}
			for len(res.Comm) <= id {
				res.Comm = append(res.Comm, CommStats{})
			}
			res.Comm[id] = CommStats{
				InputUnique: v[1], InputNonUnique: v[2],
				OutputUnique: v[3], OutputNonUnique: v[4],
				LocalUnique: v[5], LocalNonUnique: v[6],
			}
		case "edge":
			v, err := ints(1, 4)
			if err != nil {
				return nil, bad(err)
			}
			if v[0] < -maxProfileID || v[0] >= maxProfileID ||
				v[1] < -maxProfileID || v[1] >= maxProfileID {
				return nil, bad(fmt.Errorf("edge context out of range"))
			}
			if v[2] < 0 || v[3] < 0 {
				return nil, bad(fmt.Errorf("negative edge count"))
			}
			res.Edges = append(res.Edges, Edge{
				Src: int32(v[0]), Dst: int32(v[1]),
				Unique: uint64(v[2]), NonUnique: uint64(v[3]),
			})
		case "reuse":
			v, err := nums(1, 8)
			if err != nil {
				return nil, bad(err)
			}
			id, err := declared(v[0])
			if err != nil {
				return nil, bad(err)
			}
			for len(res.Reuse) <= id {
				res.Reuse = append(res.Reuse, ReuseStats{})
			}
			res.Reuse[id] = ReuseStats{
				Episodes: v[1], ZeroReuse: v[2], Low: v[3], High: v[4],
				ReusedBytes: v[5], SumReuseCount: v[6], SumLifetime: v[7],
			}
		case "rhist":
			v, err := nums(1, 3)
			if err != nil {
				return nil, bad(err)
			}
			id, err := declared(v[0])
			if err != nil {
				return nil, bad(err)
			}
			if id >= len(res.Reuse) {
				return nil, bad(fmt.Errorf("rhist for undeclared reuse context %d", id))
			}
			// No re-use lifetime outlasts the run, and total is the first
			// record, so a bin past total/LifetimeBin cannot occur.
			if v[1] > res.Profile.TotalInstrs/LifetimeBin {
				return nil, bad(fmt.Errorf("histogram bin %d past the run's %d instructions", v[1], res.Profile.TotalInstrs))
			}
			bin := int(v[1])
			h := res.Reuse[id].LifetimeHist
			if bin >= cap(h) {
				// Every bin the reader allocates counts against the
				// budget, so hostile files cannot grow it piecemeal.
				n := max(bin+1, 2*cap(h))
				if histBins += n; histBins > maxHistBins {
					return nil, bad(fmt.Errorf("histograms exceed %d bins", maxHistBins))
				}
				grown := make([]uint64, len(h), n)
				copy(grown, h)
				h = grown
			}
			if bin >= len(h) {
				h = h[:bin+1]
			}
			h[bin] = v[2]
			res.Reuse[id].LifetimeHist = h
		case "lines":
			v, err := nums(1, 7)
			if err != nil {
				return nil, bad(err)
			}
			if v[0] == 0 || v[0] > 1<<20 {
				return nil, bad(fmt.Errorf("line size %d out of range", v[0]))
			}
			res.Lines = &LineReport{LineSize: int(v[0]), TotalLines: v[1]}
			for i := 0; i < 5; i++ {
				res.Lines.Buckets[i] = v[2+i]
			}
		case "shadow":
			v, err := nums(1, 6)
			if err != nil {
				return nil, bad(err)
			}
			res.Shadow = ShadowStats{
				ChunksAllocated: v[0], ChunksLive: v[1], ChunksEvicted: v[2],
				PeakLiveChunks: v[3], BytesPerChunk: v[4], GranuleBytes: v[5],
			}
			res.Shadow.PeakBytes = res.Shadow.PeakLiveChunks * res.Shadow.BytesPerChunk
		case "external":
			v, err := nums(1, 3)
			if err != nil {
				return nil, bad(err)
			}
			res.StartupBytes, res.KernelOutBytes, res.KernelInBytes = v[0], v[1], v[2]
		default:
			return nil, fmt.Errorf("core: profile line %d: unknown record %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !footerSeen {
		return nil, ErrProfileTruncated
	}
	// Resolve the tree.
	for id, n := range res.Profile.Nodes {
		if n == nil {
			return nil, fmt.Errorf("core: profile missing context %d", id)
		}
		if pid := parents[id]; pid >= 0 {
			if pid >= len(res.Profile.Nodes) || res.Profile.Nodes[pid] == nil {
				return nil, fmt.Errorf("core: context %d has unknown parent %d", id, pid)
			}
			if pid == id {
				return nil, fmt.Errorf("core: context %d is its own parent", id)
			}
			n.Parent = res.Profile.Nodes[pid]
			n.Parent.Children = append(n.Parent.Children, n)
		}
	}
	// Reject parent cycles: walking up from any node must terminate.
	for id, n := range res.Profile.Nodes {
		steps := 0
		for p := n.Parent; p != nil; p = p.Parent {
			if steps++; steps > len(res.Profile.Nodes) {
				return nil, fmt.Errorf("core: context %d has a parent cycle", id)
			}
		}
	}
	if rootID >= 0 {
		if rootID >= len(res.Profile.Nodes) {
			return nil, fmt.Errorf("core: root %d out of range", rootID)
		}
		res.Profile.Root = res.Profile.Nodes[rootID]
	} else if len(res.Profile.Nodes) > 0 {
		res.Profile.Root = res.Profile.Nodes[0]
	}
	for len(res.Comm) < len(res.Profile.Nodes) {
		res.Comm = append(res.Comm, CommStats{})
	}
	if res.Reuse != nil {
		for len(res.Reuse) < len(res.Profile.Nodes) {
			res.Reuse = append(res.Reuse, ReuseStats{})
		}
	}
	sortEdges(res.Edges)
	return res, nil
}
