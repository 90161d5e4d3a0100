// Package cachesim implements the on-the-fly cache simulation the Callgrind
// substrate performs while a program runs: a set-associative, LRU,
// write-allocate data cache with a first level backed by a shared last
// level. Miss counts feed Callgrind's cycle-estimation formula, which the
// paper uses as the software-run-time term of the breakeven-speedup metric.
package cachesim

import "fmt"

// Config describes one cache level's geometry.
type Config struct {
	Size     int // total bytes
	LineSize int // bytes per line (power of two)
	Assoc    int // ways per set
}

// Validate reports whether the geometry is internally consistent.
func (c Config) Validate() error {
	if c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cachesim: line size %d must be a positive power of two", c.LineSize)
	}
	if c.Assoc <= 0 {
		return fmt.Errorf("cachesim: associativity %d must be positive", c.Assoc)
	}
	if c.Size <= 0 || c.Size%(c.LineSize*c.Assoc) != 0 {
		return fmt.Errorf("cachesim: size %d not divisible by line*assoc (%d)", c.Size, c.LineSize*c.Assoc)
	}
	sets := c.Size / (c.LineSize * c.Assoc)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cachesim: set count %d must be a power of two", sets)
	}
	return nil
}

func (c Config) String() string {
	return fmt.Sprintf("%dB, %d-way, %dB lines", c.Size, c.Assoc, c.LineSize)
}

// DefaultL1 mirrors a typical 32 KiB 8-way L1D with 64-byte lines.
func DefaultL1() Config { return Config{Size: 32 * 1024, LineSize: 64, Assoc: 8} }

// DefaultLL mirrors a typical 8 MiB 16-way last-level cache.
func DefaultLL() Config { return Config{Size: 8 * 1024 * 1024, LineSize: 64, Assoc: 16} }

// Cache is one set-associative LRU level.
type Cache struct {
	cfg      Config
	sets     [][]line // sets[set][way]
	setMask  uint64
	lineBits uint
	accesses uint64
	misses   uint64
}

type line struct {
	tag   uint64
	valid bool
}

// New builds a cache level, rejecting invalid geometry. Configurations can
// reach this from user input (library options, CLI flags), so a bad one must
// surface as an error rather than kill the caller mid-run.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.Size / (cfg.LineSize * cfg.Assoc)
	sets := make([][]line, nsets)
	backing := make([]line, nsets*cfg.Assoc)
	for i := range sets {
		sets[i] = backing[i*cfg.Assoc : (i+1)*cfg.Assoc]
	}
	lb := uint(0)
	for 1<<lb < cfg.LineSize {
		lb++
	}
	return &Cache{cfg: cfg, sets: sets, setMask: uint64(nsets - 1), lineBits: lb}, nil
}

// Config returns the cache's geometry.
func (c *Cache) Config() Config { return c.cfg }

// Accesses returns the number of lookups performed.
func (c *Cache) Accesses() uint64 { return c.accesses }

// Misses returns the number of lookups that missed.
func (c *Cache) Misses() uint64 { return c.misses }

// Access looks up the line containing addr, updating LRU state, and reports
// whether it hit. On a miss the line is filled (allocate-on-miss for both
// reads and writes, matching Callgrind's simulation).
func (c *Cache) Access(addr uint64) bool {
	c.accesses++
	lineAddr := addr >> c.lineBits // full line address as tag; set bits are redundant but harmless
	set := c.sets[lineAddr&c.setMask]
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			// Move to MRU position (way 0).
			hit := set[i]
			copy(set[1:i+1], set[:i])
			set[0] = hit
			return true
		}
	}
	c.misses++
	copy(set[1:], set[:len(set)-1])
	set[0] = line{tag: lineAddr, valid: true}
	return false
}

// fill installs the line containing addr at MRU position without counting
// an access or a miss (used by prefetching).
func (c *Cache) fill(addr uint64) {
	lineAddr := addr >> c.lineBits
	set := c.sets[lineAddr&c.setMask]
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			return // already resident; leave recency alone
		}
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = line{tag: lineAddr, valid: true}
}

// Hierarchy is the two-level data-cache stack Callgrind simulates: L1 backed
// by LL. An access that misses L1 is looked up in LL. With Prefetch set, an
// L1 miss also installs the next sequential line (a next-line prefetcher:
// the spatial-locality mechanism the paper notes streaming functions can
// still exploit).
type Hierarchy struct {
	L1       *Cache
	LL       *Cache
	Prefetch bool

	prefetches     uint64
	lastPrefetched uint64 // line address of the most recent prefetch (tagged)
}

// NewHierarchy builds the two-level stack, rejecting invalid geometry at
// either level.
func NewHierarchy(l1, ll Config) (*Hierarchy, error) {
	c1, err := New(l1)
	if err != nil {
		return nil, fmt.Errorf("cachesim: L1: %w", err)
	}
	cl, err := New(ll)
	if err != nil {
		return nil, fmt.Errorf("cachesim: LL: %w", err)
	}
	return &Hierarchy{L1: c1, LL: cl}, nil
}

// Prefetches reports how many next-line fills the prefetcher issued.
func (h *Hierarchy) Prefetches() uint64 { return h.prefetches }

// Stats is a point-in-time view of the hierarchy's global counters, read
// by the telemetry sampler while the simulation runs. Accesses counts
// line-level L1 lookups (an unaligned access touching two lines counts
// twice, matching the simulation).
type Stats struct {
	Accesses   uint64 // L1 lookups
	L1Misses   uint64 // lookups that missed L1
	LLMisses   uint64 // lookups that also missed the last level
	Prefetches uint64 // next-line fills issued
}

// Stats returns the current counters. Only the run goroutine may call it;
// readers elsewhere consume the sampler's atomic copies.
func (h *Hierarchy) Stats() Stats {
	return Stats{
		Accesses:   h.L1.Accesses(),
		L1Misses:   h.L1.Misses(),
		LLMisses:   h.LL.Misses(),
		Prefetches: h.prefetches,
	}
}

// DefaultHierarchy uses the default L1/LL geometries, which are statically
// valid.
func DefaultHierarchy() *Hierarchy {
	h, err := NewHierarchy(DefaultL1(), DefaultLL())
	if err != nil {
		// Unreachable: the defaults satisfy Validate by construction.
		return &Hierarchy{}
	}
	return h
}

// AccessResult classifies one access for cost attribution.
type AccessResult uint8

// Access outcomes.
const (
	HitL1 AccessResult = iota
	HitLL
	MissAll // missed both levels (memory access)
)

// Access simulates one data access. Accesses that straddle a line boundary
// touch both lines (counted as a single access classified by its worst
// outcome, following Callgrind's treatment).
func (h *Hierarchy) Access(addr uint64, size uint8) AccessResult {
	res := h.accessLine(addr)
	lb := h.L1.lineBits
	if (addr+uint64(size)-1)>>lb != addr>>lb {
		res2 := h.accessLine(addr + uint64(size) - 1)
		if res2 > res {
			res = res2
		}
	}
	return res
}

func (h *Hierarchy) accessLine(addr uint64) AccessResult {
	lineSize := uint64(1) << h.L1.lineBits
	lineAddr := addr >> h.L1.lineBits
	if h.L1.Access(addr) {
		// Tagged prefetching: a hit on the line we prefetched keeps the
		// stream running one line ahead.
		if h.Prefetch && lineAddr == h.lastPrefetched {
			h.issuePrefetch(addr + lineSize)
		}
		return HitL1
	}
	if h.Prefetch {
		h.issuePrefetch(addr + lineSize)
	}
	if h.LL.Access(addr) {
		return HitLL
	}
	return MissAll
}

func (h *Hierarchy) issuePrefetch(addr uint64) {
	h.L1.fill(addr)
	h.lastPrefetched = addr >> h.L1.lineBits
	h.prefetches++
}
