package experiments

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sigil/internal/core"
	"sigil/internal/workloads"
)

// TestProfileSingleflight hammers one cache key from many goroutines: the
// run must happen exactly once, which is observable because every caller
// must get the identical cached *core.Result back (duplicate runs would
// hand different result pointers to different callers).
func TestProfileSingleflight(t *testing.T) {
	s := NewSuite()
	s.Workers = 8
	const callers = 8
	results := make([]*core.Result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := s.Profile("canneal", workloads.SimSmall, ModeBaseline)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different result pointer: the profile ran more than once", i)
		}
	}
}

// TestParallelSuiteMixedLoad is the worker-pool race shakeout: concurrent
// profile, trace and timing requests across overlapping keys on a fresh
// suite, then a consistency check against a sequential suite's answer.
func TestParallelSuiteMixedLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several profiles")
	}
	s := NewSuite()
	s.Workers = 8
	names := []string{"canneal", "vips"}
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for rep := 0; rep < 2; rep++ {
		for _, name := range names {
			name := name
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := s.Profile(name, workloads.SimSmall, ModeBaseline); err != nil {
					errc <- err
				}
			}()
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := s.Profile(name, workloads.SimSmall, ModeReuse); err != nil {
					errc <- err
				}
			}()
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := s.Trace(name); err != nil {
					errc <- err
				}
			}()
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Parallel generation must not change what a profile contains.
	seq := NewSuite()
	seq.Workers = 1
	want, err := seq.Profile("canneal", workloads.SimSmall, ModeBaseline)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Profile("canneal", workloads.SimSmall, ModeBaseline)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalCommunicated() != want.TotalCommunicated() {
		t.Errorf("parallel comm %+v != sequential %+v", got.TotalCommunicated(), want.TotalCommunicated())
	}
	if len(got.Edges) != len(want.Edges) {
		t.Errorf("parallel edges %d != sequential %d", len(got.Edges), len(want.Edges))
	}
}

// TestRunPoolStopsOnError checks the pool reports the first failure and
// stops feeding jobs rather than draining the whole list.
//
// The jobs after the failing one take a millisecond each, as real profiling
// jobs take far longer than a handoff on the feed. Were they instant, the
// feeder and the other worker could hand off and run every remaining job
// while the worker holding the failing job waits to be scheduled, before
// there is any error for the pool to stop on.
func TestRunPoolStopsOnError(t *testing.T) {
	s := NewSuite()
	s.Workers = 2
	boom := errors.New("boom")
	var ran atomic.Int32
	jobs := make([]func() error, 64)
	for i := range jobs {
		i := i
		jobs[i] = func() error {
			ran.Add(1)
			switch {
			case i == 3:
				return boom
			case i > 3:
				time.Sleep(time.Millisecond)
			}
			return nil
		}
	}
	if err := s.runPool(jobs); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if ran.Load() == int32(len(jobs)) {
		t.Error("pool drained every job despite an early error")
	}
}

// TestRunPoolHonorsCancellation checks a cancelled suite context stops the
// feed. The jobs after the first wait for it to cancel: were they instant,
// the feeder and the other worker could run them all before the worker
// holding the first job is scheduled. The cancel happens inside that job, so
// the feed sees it before any later job can finish.
func TestRunPoolHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := NewSuite()
	s.Workers = 2
	s.Ctx = ctx
	var ran atomic.Int32
	jobs := make([]func() error, 64)
	for i := range jobs {
		i := i
		jobs[i] = func() error {
			ran.Add(1)
			if i == 0 {
				cancel()
			} else {
				<-ctx.Done()
			}
			return nil
		}
	}
	if err := s.runPool(jobs); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() == int32(len(jobs)) {
		t.Error("pool drained every job despite cancellation")
	}
}
