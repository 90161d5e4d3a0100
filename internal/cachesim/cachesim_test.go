package cachesim

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestConfigValidate(t *testing.T) {
	good := []Config{
		DefaultL1(), DefaultLL(),
		{Size: 1024, LineSize: 64, Assoc: 1},
		{Size: 4096, LineSize: 32, Assoc: 2},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("%v rejected: %v", c, err)
		}
	}
	bad := []Config{
		{},
		{Size: 1000, LineSize: 64, Assoc: 1},   // size not divisible
		{Size: 1024, LineSize: 48, Assoc: 1},   // line not power of two
		{Size: 1024, LineSize: 64, Assoc: 0},   // zero assoc
		{Size: 64 * 3, LineSize: 64, Assoc: 1}, // 3 sets: not power of two
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%v accepted", c)
		}
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := mustNew(Config{Size: 1024, LineSize: 64, Assoc: 2})
	if c.Access(0x100) {
		t.Error("cold access hit")
	}
	if !c.Access(0x100) {
		t.Error("warm access missed")
	}
	if !c.Access(0x13F) { // same 64-byte line as 0x100
		t.Error("same-line access missed")
	}
	if c.Misses() != 1 || c.Accesses() != 3 {
		t.Errorf("misses=%d accesses=%d", c.Misses(), c.Accesses())
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way cache with 2 sets of 64B lines: size = 2*2*64 = 256.
	c := mustNew(Config{Size: 256, LineSize: 64, Assoc: 2})
	// Three lines mapping to set 0 (stride = nsets*linesize = 128).
	a, b2, d := uint64(0), uint64(256), uint64(512)
	c.Access(a)
	c.Access(b2)
	c.Access(d) // evicts a (LRU)
	if c.Access(a) {
		t.Error("evicted line still hit")
	}
	// Now a and d resident; b2 evicted by a's refill.
	if !c.Access(d) {
		t.Error("d should be resident")
	}
	if c.Access(b2) {
		t.Error("b2 should have been evicted")
	}
}

func TestLRUTouchesRefreshRecency(t *testing.T) {
	c := mustNew(Config{Size: 256, LineSize: 64, Assoc: 2})
	a, b2, d := uint64(0), uint64(256), uint64(512)
	c.Access(a)
	c.Access(b2)
	c.Access(a) // refresh a; b2 now LRU
	c.Access(d) // evicts b2
	if !c.Access(a) {
		t.Error("refreshed line evicted")
	}
	if c.Access(b2) {
		t.Error("stale line survived")
	}
}

func TestWorkingSetFitsNoCapacityMisses(t *testing.T) {
	c := mustNew(DefaultL1())
	// Touch 16 KiB twice; second pass must be all hits.
	for pass := 0; pass < 2; pass++ {
		misses := c.Misses()
		for addr := uint64(0); addr < 16*1024; addr += 64 {
			c.Access(addr)
		}
		if pass == 1 && c.Misses() != misses {
			t.Errorf("second pass missed %d times", c.Misses()-misses)
		}
	}
}

func TestStreamingThrashes(t *testing.T) {
	c := mustNew(Config{Size: 1024, LineSize: 64, Assoc: 2})
	// Stream 1 MiB: nearly every line access should miss.
	var accesses uint64
	for addr := uint64(0); addr < 1<<20; addr += 64 {
		c.Access(addr)
		accesses++
	}
	if c.Misses() != accesses {
		t.Errorf("streaming misses = %d, want %d", c.Misses(), accesses)
	}
}

func TestHierarchyClassification(t *testing.T) {
	h := mustHierarchy(
		Config{Size: 256, LineSize: 64, Assoc: 2},
		Config{Size: 4096, LineSize: 64, Assoc: 4},
	)
	if got := h.Access(0, 8); got != MissAll {
		t.Errorf("cold access = %v, want MissAll", got)
	}
	if got := h.Access(0, 8); got != HitL1 {
		t.Errorf("warm access = %v, want HitL1", got)
	}
	// Evict line 0 from tiny L1 by touching set-0 conflicts; LL retains it.
	h.Access(256, 8)
	h.Access(512, 8)
	if got := h.Access(0, 8); got != HitLL {
		t.Errorf("L1-evicted access = %v, want HitLL", got)
	}
}

func TestHierarchyLineStraddle(t *testing.T) {
	h := DefaultHierarchy()
	// An 8-byte access at 60 touches lines 0 and 64.
	h.Access(60, 8)
	if got := h.Access(0, 1); got != HitL1 {
		t.Errorf("first line not filled: %v", got)
	}
	if got := h.Access(64, 1); got != HitL1 {
		t.Errorf("second line not filled: %v", got)
	}
}

// Property: miss count never exceeds access count, and a repeat of the same
// address sequence with no interference yields fewer or equal misses.
func TestMissesBoundedProperty(t *testing.T) {
	prop := func(addrs []uint64) bool {
		c := mustNew(Config{Size: 2048, LineSize: 64, Assoc: 4})
		for _, a := range addrs {
			c.Access(a % (1 << 20))
		}
		first := c.Misses()
		if first > c.Accesses() {
			return false
		}
		for _, a := range addrs {
			c.Access(a % (1 << 20))
		}
		return c.Misses()-first <= first
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPrefetchTaggedStreaming(t *testing.T) {
	h := mustHierarchy(
		Config{Size: 4096, LineSize: 64, Assoc: 4},
		Config{Size: 1 << 16, LineSize: 64, Assoc: 8},
	)
	h.Prefetch = true
	// Stream 64 KiB sequentially: after the first miss the tagged
	// next-line prefetcher stays one line ahead.
	misses := 0
	for addr := uint64(0); addr < 1<<16; addr += 8 {
		if h.Access(addr, 8) != HitL1 {
			misses++
		}
	}
	if misses > 2 {
		t.Errorf("streaming misses = %d with tagged prefetch, want <= 2", misses)
	}
	if h.Prefetches() == 0 {
		t.Error("no prefetches counted")
	}
}

func TestPrefetchDisabledByDefault(t *testing.T) {
	h := DefaultHierarchy()
	for addr := uint64(0); addr < 1<<12; addr += 64 {
		h.Access(addr, 8)
	}
	if h.Prefetches() != 0 {
		t.Errorf("prefetches issued while disabled: %d", h.Prefetches())
	}
}

func TestFillIdempotent(t *testing.T) {
	c := mustNew(Config{Size: 256, LineSize: 64, Assoc: 2})
	c.Access(0)
	before := c.Misses()
	c.fill(0) // already resident: no state change, no counters
	c.fill(64)
	if c.Misses() != before || c.Accesses() != 1 {
		t.Error("fill touched counters")
	}
	if !c.Access(64) {
		t.Error("filled line not resident")
	}
}

func TestConfigString(t *testing.T) {
	s := DefaultL1().String()
	if s == "" || !strings.Contains(s, "8-way") {
		t.Errorf("Config.String = %q", s)
	}
}
