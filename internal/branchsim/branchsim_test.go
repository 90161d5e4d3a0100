package branchsim

import (
	"testing"
	"testing/quick"
)

func TestAlwaysTakenConverges(t *testing.T) {
	p := New(64)
	var late uint64
	for i := 0; i < 1000; i++ {
		mis := p.Record(42, true)
		if i > 10 && mis {
			late++
		}
	}
	if late != 0 {
		t.Errorf("always-taken branch mispredicted %d times after warmup", late)
	}
	if p.Branches() != 1000 {
		t.Errorf("branches = %d", p.Branches())
	}
}

func TestAlwaysNotTakenConverges(t *testing.T) {
	p := New(64)
	for i := 0; i < 10; i++ {
		p.Record(7, false)
	}
	before := p.Mispredicts()
	for i := 0; i < 100; i++ {
		p.Record(7, false)
	}
	if p.Mispredicts() != before {
		t.Error("converged not-taken branch still mispredicting")
	}
}

func TestAlternatingBranchMispredictsOften(t *testing.T) {
	p := New(64)
	for i := 0; i < 1000; i++ {
		p.Record(9, i%2 == 0)
	}
	// A 2-bit counter on a strictly alternating branch hovers between
	// weak states; expect a large misprediction fraction.
	if p.Mispredicts() < 400 {
		t.Errorf("alternating branch mispredicted only %d/1000", p.Mispredicts())
	}
}

func TestLoopBranchLowMissRate(t *testing.T) {
	p := New(1024)
	// Model a loop of 100 iterations run 100 times: taken 99x, not-taken 1x.
	for rep := 0; rep < 100; rep++ {
		for i := 0; i < 99; i++ {
			p.Record(5, true)
		}
		p.Record(5, false)
	}
	rate := float64(p.Mispredicts()) / float64(p.Branches())
	if rate > 0.05 {
		t.Errorf("loop-branch miss rate %.3f, want <= 0.05", rate)
	}
}

func TestDistinctSitesIndependent(t *testing.T) {
	p := New(1 << 16)
	for i := 0; i < 200; i++ {
		p.Record(1, true)
		p.Record(100000, false)
	}
	// With a large table the two sites should not alias; both converge,
	// so total mispredicts stay small (only warmup).
	if p.Mispredicts() > 8 {
		t.Errorf("independent sites mispredicted %d times", p.Mispredicts())
	}
}

func TestMispredictsBoundedProperty(t *testing.T) {
	prop := func(sites []uint8, outcomes []bool) bool {
		p := New(256)
		n := len(sites)
		if len(outcomes) < n {
			n = len(outcomes)
		}
		for i := 0; i < n; i++ {
			p.Record(uint64(sites[i]), outcomes[i])
		}
		return p.Mispredicts() <= p.Branches() && p.Branches() == uint64(n)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTableSizeRounding(t *testing.T) {
	p := New(1000) // rounds up to 1024
	if len(p.counters) != 1024 {
		t.Errorf("table size = %d, want 1024", len(p.counters))
	}
	p = New(0)
	if len(p.counters) != DefaultTableSize {
		t.Errorf("default table size = %d", len(p.counters))
	}
}

func TestGshareLearnsAlternation(t *testing.T) {
	g := NewGshare(1024, 4)
	var late uint64
	for i := 0; i < 1000; i++ {
		mis := g.Record(9, i%2 == 0)
		if i > 50 && mis {
			late++
		}
	}
	if late > 10 {
		t.Errorf("gshare mispredicted alternating branch %d times after warmup", late)
	}
	if g.Branches() != 1000 {
		t.Errorf("branches = %d", g.Branches())
	}
	if g.Mispredicts() > 60 {
		t.Errorf("total mispredicts = %d, want warmup-only", g.Mispredicts())
	}
}

func TestGshareHistoryClamps(t *testing.T) {
	// Zero selects the default; oversized clamps to 24.
	if g := NewGshare(64, 0); g.bits != 12 {
		t.Errorf("default history = %d, want 12", g.bits)
	}
	if g := NewGshare(64, 99); g.bits != 24 {
		t.Errorf("clamped history = %d, want 24", g.bits)
	}
}

func TestGshareInterface(t *testing.T) {
	var r Recorder = NewGshare(64, 8)
	r.Record(1, true)
	if r.Branches() != 1 {
		t.Error("interface delegation broken")
	}
}
