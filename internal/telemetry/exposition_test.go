package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestExpositionGolden pins what a snapshot exposes to its readers, the
// JSON keys and the Prometheus series, in testdata/exposition.golden:
//
//   - "json" lines: the JSON of a sentinel snapshot, whose every value is
//     distinct, as key→value pairs;
//   - "prom" lines: the sentinel snapshot's Prometheus series, as (name,
//     TYPE, value, HELP) entries;
//   - "zero" lines: the JSON keys of an all-zero snapshot, which pin the
//     keys left out when zero.
//
// Both sides are compared as sets of lines, so output order is free.
func TestExpositionGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/exposition.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line != "" && !strings.HasPrefix(line, "# ") {
			want[line] = true
		}
	}
	got := map[string]bool{}
	for _, line := range expositionLines(t) {
		if got[line] {
			t.Errorf("exposition repeats %q", line)
		}
		got[line] = true
		if !want[line] {
			t.Errorf("exposition has %q, not in the golden file", line)
		}
	}
	for line := range want {
		if !got[line] {
			t.Errorf("exposition lacks golden %q", line)
		}
	}
}

// expositionLines renders the sentinel and zero snapshots into the sorted
// lines the golden file holds.
func expositionLines(t *testing.T) []string {
	t.Helper()
	s := sentinelSnapshot()
	var lines []string
	for k, v := range jsonMap(t, s) {
		lines = append(lines, "json "+k+" "+v)
	}
	var prom bytes.Buffer
	if err := s.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	lines = append(lines, promEntries(t, prom.String())...)
	for k := range jsonMap(t, Snapshot{}) {
		lines = append(lines, "zero "+k)
	}
	sort.Strings(lines)
	return lines
}

// sentinel is the value the sentinel snapshot holds under the i-th JSON key
// in sorted order. It reads as a distinct number of seconds too, so the
// series exported in seconds stay distinct.
func sentinel(i int) uint64 { return uint64(i+1) * 1_001_001_001 }

// sentinelSnapshot returns a snapshot holding sentinel(i) under the i-th
// JSON key in sorted order.
func sentinelSnapshot() Snapshot {
	keys := make([]string, 0, len(counters))
	for _, d := range counters {
		keys = append(keys, d.key)
	}
	sort.Strings(keys)
	var s Snapshot
	for c, d := range counters {
		s[c] = sentinel(sort.SearchStrings(keys, d.key))
	}
	return s
}

// jsonMap decodes s's JSON as a key→value map, each value as written.
func jsonMap(t *testing.T, s Snapshot) map[string]string {
	t.Helper()
	b, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.Number
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("%v\n%s", err, b)
	}
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v.String()
	}
	return out
}

// promEntries parses Prometheus text exposition into one "prom" line per
// series: name, TYPE, value and HELP.
func promEntries(t *testing.T, text string) []string {
	t.Helper()
	help, kind, value := map[string]string{}, map[string]string{}, map[string]string{}
	set := func(m map[string]string, name, v, line string) {
		if _, dup := m[name]; dup {
			t.Errorf("series %s repeated at %q", name, line)
		}
		m[name] = v
	}
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, h, _ := strings.Cut(rest, " ")
			set(help, name, h, line)
		} else if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, k, _ := strings.Cut(rest, " ")
			set(kind, name, k, line)
		} else {
			name, v, _ := strings.Cut(line, " ")
			set(value, name, v, line)
		}
	}
	var out []string
	for name, v := range value {
		out = append(out, fmt.Sprintf("prom %s %s %s %q", name, kind[name], v, help[name]))
	}
	for name := range help {
		if _, ok := value[name]; !ok {
			t.Errorf("series %s has HELP but no sample", name)
		}
	}
	for name := range kind {
		if _, ok := value[name]; !ok {
			t.Errorf("series %s has TYPE but no sample", name)
		}
	}
	return out
}
