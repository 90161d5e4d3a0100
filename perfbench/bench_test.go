package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"sigil/internal/workloads"
)

// contract is the part of BENCHMARK.json the smoke test holds the code to.
type contract struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Workload []struct{ Name string }       `json:"workloads"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c
}

func smokeConfig(name string, traced bool) config {
	small := workloads.SimSmall
	return config{workload: name, seed: 1, window: 100 * time.Millisecond, traced: traced, class: &small}
}

// TestSmoke runs every workload at simsmall through the benchmark's own
// code, untraced and traced, and checks that each pass is correct and that
// every metric BENCHMARK.json names is emitted with its unit.
func TestSmoke(t *testing.T) {
	c := loadContract(t)
	if len(c.Workload) != len(registry) {
		t.Fatalf("BENCHMARK.json names %d workloads, the registry has %d", len(c.Workload), len(registry))
	}
	for _, wl := range c.Workload {
		for _, traced := range []bool{false, true} {
			want := c.EndToEnd
			if traced {
				want = c.PerLayer
			}
			out, err := run(smokeConfig(wl.Name, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.Name, traced, err)
			}
			if out.attempted == 0 || out.failed != 0 {
				t.Fatalf("%s traced=%v: %d of %d passes failed: %v", wl.Name, traced, out.failed, out.attempted, out.failures)
			}
			got := map[string]string{}
			for _, m := range out.metrics {
				got[m.name] = m.unit
			}
			if len(got) != len(want) {
				t.Errorf("%s traced=%v: emitted %d metrics, BENCHMARK.json names %d", wl.Name, traced, len(got), len(want))
			}
			for _, m := range want {
				if unit, ok := got[m.Name]; !ok || unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s emitted with unit %q (present %v), want %q", wl.Name, traced, m.Name, unit, ok, m.Unit)
				}
			}
		}
	}
}

// TestCorruptDigestFails keeps the output checks honest: with one wrong
// expected digest every pass must count as failed and the result as
// incorrect.
func TestCorruptDigestFails(t *testing.T) {
	for _, w := range registry {
		want := w.expect[workloads.SimSmall]
		want.profileSHA = strings.Repeat("0", 64)
		cfg := smokeConfig(w.name, false)
		cfg.want = &want
		out, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if out.attempted == 0 || out.failed != out.attempted {
			t.Errorf("%s: %d of %d passes failed with a corrupted digest, want all", w.name, out.failed, out.attempted)
		}
		line, err := out.resultLine()
		if err != nil {
			t.Fatal(err)
		}
		var res struct{ Correct bool }
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			t.Fatal(err)
		}
		if res.Correct {
			t.Errorf("%s: result line reports correct with a corrupted digest: %s", w.name, line)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles(range(1, 11), n=10)[0] == 1.1
	if d := quantiles(xs, 10)[0]; math.Abs(d-1.1) > 1e-12 {
		t.Errorf("first decile = %v, want 1.1", d)
	}
}
