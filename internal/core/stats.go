package core

import "sort"

// CommStats aggregates a context's communicated bytes on the paper's two
// classification axes: input/output/local and unique/non-unique. Input means
// the context read a byte another function produced; output means another
// function read a byte this context produced; local means the context read a
// byte it produced itself. A read is non-unique when the byte's last reader
// is the reading context, in any of its calls, and unique otherwise: the
// call number delimits re-use episodes, not uniqueness.
type CommStats struct {
	InputUnique     uint64
	InputNonUnique  uint64
	OutputUnique    uint64
	OutputNonUnique uint64
	LocalUnique     uint64
	LocalNonUnique  uint64
}

// Add accumulates o into s.
func (s *CommStats) Add(o CommStats) {
	s.InputUnique += o.InputUnique
	s.InputNonUnique += o.InputNonUnique
	s.OutputUnique += o.OutputUnique
	s.OutputNonUnique += o.OutputNonUnique
	s.LocalUnique += o.LocalUnique
	s.LocalNonUnique += o.LocalNonUnique
}

// TotalRead returns every byte read by the context, the undifferentiated
// quantity prior profilers report.
func (s CommStats) TotalRead() uint64 {
	return s.InputUnique + s.InputNonUnique + s.LocalUnique + s.LocalNonUnique
}

// UniqueIn returns the context's true input set size: the unique bytes it
// consumed from other producers. This is what a well-designed accelerator
// with an internal buffer would actually need to fetch.
func (s CommStats) UniqueIn() uint64 { return s.InputUnique }

// UniqueOut returns the unique bytes other consumers read from this
// context's output.
func (s CommStats) UniqueOut() uint64 { return s.OutputUnique }

// Edge is one producer→consumer data-flow edge aggregated over a run. Src
// may be a real context ID or trace.CtxStartup / trace.CtxKernel; Dst is a
// real context ID or trace.CtxKernel (bytes consumed by syscalls, all
// unique).
type Edge struct {
	Src       int32
	Dst       int32
	Unique    uint64 // bytes read by a context that was not their last reader
	NonUnique uint64 // bytes re-read by the context that read them last
}

// LifetimeBin is the width of re-use lifetime histogram bins in retired
// instructions, matching the bin size of the paper's Figures 10 and 11.
const LifetimeBin = 1000

// ReuseStats aggregates per-context re-use behaviour. One "episode" is the
// consecutive run of reads of a single granule by a single function call;
// its re-use count is the number of reads after the first and its lifetime
// is the time between its first and last read.
type ReuseStats struct {
	Episodes      uint64 // total flushed episodes
	ZeroReuse     uint64 // episodes with a single read
	Low           uint64 // episodes re-used 1..9 times
	High          uint64 // episodes re-used >9 times
	ReusedBytes   uint64 // episodes with at least one re-use
	SumReuseCount uint64
	SumLifetime   uint64   // summed over reused episodes
	LifetimeHist  []uint64 // bin i counts reused episodes with lifetime in [i*LifetimeBin,(i+1)*LifetimeBin)
}

// Add accumulates o into s.
func (s *ReuseStats) Add(o ReuseStats) {
	s.Episodes += o.Episodes
	s.ZeroReuse += o.ZeroReuse
	s.Low += o.Low
	s.High += o.High
	s.ReusedBytes += o.ReusedBytes
	s.SumReuseCount += o.SumReuseCount
	s.SumLifetime += o.SumLifetime
	if len(o.LifetimeHist) > len(s.LifetimeHist) {
		grown := make([]uint64, len(o.LifetimeHist))
		copy(grown, s.LifetimeHist)
		s.LifetimeHist = grown
	}
	for i, v := range o.LifetimeHist {
		s.LifetimeHist[i] += v
	}
}

// AvgLifetime returns the mean re-use lifetime over reused episodes, the
// quantity plotted in the paper's Figure 9.
func (s ReuseStats) AvgLifetime() float64 {
	if s.ReusedBytes == 0 {
		return 0
	}
	return float64(s.SumLifetime) / float64(s.ReusedBytes)
}

func (s *ReuseStats) recordEpisode(count uint32, lifetime uint64) {
	s.Episodes++
	s.SumReuseCount += uint64(count)
	switch {
	case count == 0:
		s.ZeroReuse++
		return
	case count <= 9:
		s.Low++
	default:
		s.High++
	}
	s.ReusedBytes++
	s.SumLifetime += lifetime
	bin := int(lifetime / LifetimeBin)
	if bin >= len(s.LifetimeHist) {
		grown := make([]uint64, bin+1)
		copy(grown, s.LifetimeHist)
		s.LifetimeHist = grown
	}
	s.LifetimeHist[bin]++
}

// LineReport is the line-granularity output mode: instead of aggregating
// costs by function, Sigil reports re-use counts for every line the program
// touched, bucketed the way the paper's Figure 12 presents them
// (<10, <100, <1000, <10000, >=10000 re-uses).
type LineReport struct {
	LineSize   int
	TotalLines uint64
	Buckets    [5]uint64
}

// BucketLabels names the Figure 12 buckets in order.
var BucketLabels = [5]string{"<10", "<100", "<1000", "<10000", ">=10000"}

func (r *LineReport) record(reuseCount uint64) {
	r.TotalLines++
	switch {
	case reuseCount < 10:
		r.Buckets[0]++
	case reuseCount < 100:
		r.Buckets[1]++
	case reuseCount < 1000:
		r.Buckets[2]++
	case reuseCount < 10000:
		r.Buckets[3]++
	default:
		r.Buckets[4]++
	}
}

// Fractions returns each bucket's share of all touched lines.
func (r *LineReport) Fractions() [5]float64 {
	var out [5]float64
	if r.TotalLines == 0 {
		return out
	}
	for i, b := range r.Buckets {
		out[i] = float64(b) / float64(r.TotalLines)
	}
	return out
}

// sortEdges orders edges deterministically (by src, then dst).
func sortEdges(edges []Edge) {
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Src != edges[j].Src {
			return edges[i].Src < edges[j].Src
		}
		return edges[i].Dst < edges[j].Dst
	})
}
