package critpath

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"testing"

	"sigil/internal/core"
	"sigil/internal/trace"
	"sigil/internal/vm"
	"sigil/internal/workloads"
)

// mustBuild keeps hand-assembled test programs terse now that the library
// builder returns errors instead of panicking; a panic here only ever
// reports a typo in the test's own program.
func mustBuild(b *vm.Builder) *vm.Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// eventStream is a workload's v3 event file paired with the same stream
// renumbered sparsely, so the call index's overflow map serves every
// lookup of the second.
type eventStream struct {
	name   string
	dense  []byte // the file as Sigil wrote it, calls numbered from 1
	sparse []byte // every call number c rewritten to c<<32 | 7
}

var (
	streamsOnce sync.Once
	streams     []eventStream
	streamsErr  error
)

// workloadStreams returns the simsmall event file of every registry
// workload with its sparse renumbering, built once per test binary.
func workloadStreams(t *testing.T) []eventStream {
	t.Helper()
	streamsOnce.Do(func() {
		for _, name := range workloads.Names() {
			dense, err := eventFile(name)
			if err != nil {
				streamsErr = fmt.Errorf("%s: %w", name, err)
				return
			}
			sparse, err := renumber(dense, func(c uint64) uint64 { return c<<32 | 7 })
			if err != nil {
				streamsErr = fmt.Errorf("%s: renumbering: %w", name, err)
				return
			}
			streams = append(streams, eventStream{name: name, dense: dense, sparse: sparse})
		}
	})
	if streamsErr != nil {
		t.Fatal(streamsErr)
	}
	return streams
}

// eventFile profiles a registry workload at simsmall and returns the v3
// event file it wrote.
func eventFile(name string) ([]byte, error) {
	prog, input, err := workloads.Build(name, workloads.SimSmall)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	if _, err := core.Run(prog, core.Options{Events: w}, input); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// renumber re-encodes an event file with every call number passed through
// f, keeping the events and their order otherwise unchanged.
func renumber(data []byte, f func(uint64) uint64) ([]byte, error) {
	rd := trace.NewReader(bytes.NewReader(data))
	var out bytes.Buffer
	w := trace.NewWriter(&out)
	for {
		e, err := rd.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		e.Call, e.SrcCall = f(e.Call), f(e.SrcCall)
		if err := w.Emit(e); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// diffAnalysis describes how got differs from want in SerialOps,
// CriticalOps, Segments, Chain and ChainCtxs, or returns "" when they
// agree.
func diffAnalysis(got, want *Analysis) string {
	var d []string
	if got.SerialOps != want.SerialOps {
		d = append(d, fmt.Sprintf("SerialOps %d, want %d", got.SerialOps, want.SerialOps))
	}
	if got.CriticalOps != want.CriticalOps {
		d = append(d, fmt.Sprintf("CriticalOps %d, want %d", got.CriticalOps, want.CriticalOps))
	}
	if got.Segments != want.Segments {
		d = append(d, fmt.Sprintf("Segments %d, want %d", got.Segments, want.Segments))
	}
	if !slices.Equal(got.Chain, want.Chain) {
		d = append(d, fmt.Sprintf("Chain %s, want %s", clip(got.Chain), clip(want.Chain)))
	}
	if !slices.Equal(got.ChainCtxs, want.ChainCtxs) {
		d = append(d, fmt.Sprintf("ChainCtxs %v, want %v", clip(got.ChainCtxs), clip(want.ChainCtxs)))
	}
	return strings.Join(d, "; ")
}

// clip shortens a chain for a failure message.
func clip[T any](chain []T) string {
	if len(chain) > 8 {
		return fmt.Sprintf("%v… (%d long)", chain[:8], len(chain))
	}
	return fmt.Sprint(chain)
}
