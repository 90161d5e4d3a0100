// Package branchsim implements the branch-misprediction simulation of the
// Callgrind substrate: a table of 2-bit saturating counters indexed by a
// hash of the branch site (bimodal), or optionally xored with a global
// history register (gshare). Misprediction counts feed the cycle-estimation
// formula the paper uses to estimate per-function software run time.
package branchsim

// Recorder is the predictor interface the substrate drives: observe one
// resolved branch, report whether it was mispredicted.
type Recorder interface {
	Record(site uint64, taken bool) bool
	Branches() uint64
	Mispredicts() uint64
}

// Predictor is a bimodal predictor: 2-bit saturating counters, one per
// table slot, indexed by branch site.
type Predictor struct {
	counters []uint8
	mask     uint64

	branches   uint64
	mispredict uint64
}

// DefaultTableSize is the default number of 2-bit counters.
const DefaultTableSize = 16384

// New returns a predictor with the given table size (rounded up to a power
// of two; 0 selects DefaultTableSize). Counters start weakly-taken, which
// favours the loop-heavy workloads a profiler typically sees.
func New(tableSize int) *Predictor {
	if tableSize <= 0 {
		tableSize = DefaultTableSize
	}
	n := 1
	for n < tableSize {
		n <<= 1
	}
	c := make([]uint8, n)
	for i := range c {
		c[i] = 2 // weakly taken
	}
	return &Predictor{counters: c, mask: uint64(n - 1)}
}

// Record observes a resolved branch and reports whether it was mispredicted.
func (p *Predictor) Record(site uint64, taken bool) bool {
	p.branches++
	// Multiplicative hash spreads consecutive sites across the table.
	idx := (site * 0x9E3779B97F4A7C15) >> 32 & p.mask
	ctr := p.counters[idx]
	predicted := ctr >= 2
	if taken {
		if ctr < 3 {
			p.counters[idx] = ctr + 1
		}
	} else {
		if ctr > 0 {
			p.counters[idx] = ctr - 1
		}
	}
	if predicted != taken {
		p.mispredict++
		return true
	}
	return false
}

// Branches returns the number of branches observed.
func (p *Predictor) Branches() uint64 { return p.branches }

// Mispredicts returns the number of mispredicted branches.
func (p *Predictor) Mispredicts() uint64 { return p.mispredict }

var _ Recorder = (*Predictor)(nil)

// Gshare is a global-history predictor: the site hash is xored with a
// shift register of recent outcomes, letting correlated branches (e.g.
// alternating patterns) train distinct counters.
type Gshare struct {
	bimodal *Predictor
	history uint64
	bits    uint
}

// NewGshare returns a gshare predictor with the given table size (rounded
// up to a power of two) and history length in bits (clamped to [1, 24];
// 0 selects 12).
func NewGshare(tableSize int, historyBits uint) *Gshare {
	if historyBits == 0 {
		historyBits = 12
	}
	if historyBits > 24 {
		historyBits = 24
	}
	return &Gshare{bimodal: New(tableSize), bits: historyBits}
}

// Record implements Recorder.
func (g *Gshare) Record(site uint64, taken bool) bool {
	mis := g.bimodal.Record(site^g.history, taken)
	g.history <<= 1
	if taken {
		g.history |= 1
	}
	g.history &= (1 << g.bits) - 1
	return mis
}

// Branches implements Recorder.
func (g *Gshare) Branches() uint64 { return g.bimodal.Branches() }

// Mispredicts implements Recorder.
func (g *Gshare) Mispredicts() uint64 { return g.bimodal.Mispredicts() }

var _ Recorder = (*Gshare)(nil)
