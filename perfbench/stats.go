package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number with the samples behind it.
type metric struct {
	name    string
	unit    string
	value   float64
	samples []float64 // per-pass or per-round values; nil for exact counts
}

// quantiles returns the n-1 cut points dividing xs into n groups, with the
// exclusive method of Python's statistics.quantiles, the definition the
// benchmark's spread is judged by.
func quantiles(xs []float64, n int) []float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	q := make([]float64, n-1)
	switch len(d) {
	case 0:
		return q
	case 1:
		for i := range q {
			q[i] = d[0]
		}
		return q
	}
	m := len(d) + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := float64(i*m - j*n)
		q[i-1] = (d[j-1]*(float64(n)-delta) + d[j]*delta) / float64(n)
	}
	return q
}

func quartiles(xs []float64) (q1, q2, q3 float64) {
	q := quantiles(xs, 4)
	return q[0], q[1], q[2]
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

func seconds(d time.Duration) float64 { return d.Seconds() }

// gcSample reads the runtime's cumulative heap allocation and GC cycle
// counters without stopping the world.
type gcSample struct{ allocBytes, cycles uint64 }

var gcMetrics = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readGC() gcSample {
	metrics.Read(gcMetrics)
	return gcSample{allocBytes: gcMetrics[0].Value.Uint64(), cycles: gcMetrics[1].Value.Uint64()}
}

func maxRSSBytes() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports kilobytes
}

// host describes where and on what code a result was measured, so a
// comparison across hosts or commits is visible as one.
type host struct {
	nproc      int
	cpu        string
	goVersion  string
	gomaxprocs int
	commit     string
	sources    string // sha256 over the module's Go sources and go.mod files
}

func describeHost(root string) host {
	h := host{
		nproc:      runtime.NumCPU(),
		cpu:        cpuModel(),
		goVersion:  runtime.Version(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		commit:     "unknown",
		sources:    sourceDigest(root),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					modified = "+dirty"
				}
			}
		}
		h.commit += modified
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every .go and go.mod file under root (skipping
// dot-directories such as build output), in path order. A checkout without
// version-control metadata is still identified by it.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
