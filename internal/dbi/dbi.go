// Package dbi is the dynamic-binary-instrumentation analogue: it stands in
// for the Valgrind framework layer the paper builds on. A Tool observes the
// primitive stream (memory accesses, calls/returns, branches, syscalls) that
// the virtual machine emits while executing a program, and reads the
// machine's operation tallies at call boundaries. One tool runs per
// program: Sigil drives the Callgrind tool it hooks into itself, the way
// the paper describes.
package dbi

import (
	"context"
	"fmt"
	"time"

	"sigil/internal/vm"
)

// Tool is the instrumentation interface. It is exactly the machine's
// Observer contract; the alias exists so analysis packages depend on dbi
// rather than on the machine internals.
type Tool = vm.Observer

// RunResult describes one instrumented (or native) run.
type RunResult struct {
	Stats    vm.RunStats
	Duration time.Duration // wall-clock, for the paper's slowdown figures
}

// Run executes the program on a fresh machine under the given tool (nil for
// a native run) with the given syscall input stream.
func Run(p *vm.Program, tool Tool, input []byte) (RunResult, error) {
	return RunContext(context.Background(), p, tool, input, nil)
}

// RunContext is Run with cooperative cancellation and an optional stop hook
// polled alongside the context (see vm.Machine.StopCheck). On an early stop
// or fault the returned RunResult still describes the work performed, so
// callers can salvage partially collected profiles.
func RunContext(ctx context.Context, p *vm.Program, tool Tool, input []byte, stopCheck func() error) (RunResult, error) {
	m := vm.NewMachine()
	m.SetInput(input)
	m.StopCheck = stopCheck
	start := time.Now()
	stats, err := m.RunContext(ctx, p, tool)
	elapsed := time.Since(start)
	res := RunResult{Stats: stats, Duration: elapsed}
	if err != nil {
		return res, fmt.Errorf("dbi: run failed: %w", err)
	}
	return res, nil
}
