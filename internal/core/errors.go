package core

import (
	"context"
	"errors"
	"fmt"
)

// BudgetError reports a profiling run ended because a resource budget from
// Options was exhausted. The run is not a failure: RunContext returns the
// partial Result collected up to the stop alongside the error, so callers
// keep everything the run paid for.
type BudgetError struct {
	// Resource names the exhausted budget: "instructions", "wall-clock"
	// or "shadow-chunks".
	Resource string
	// Limit is the configured budget; Used is the consumption observed at
	// the stop (instructions, nanoseconds, or chunks).
	Limit uint64
	Used  uint64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("core: %s budget exceeded (limit %d, used %d)", e.Resource, e.Limit, e.Used)
}

// PanicError reports a panic recovered at the Run boundary. The run's
// partial Result, when salvageable, is returned alongside it.
type PanicError struct {
	Value any    // the recovered panic value
	Stack []byte // the panicking goroutine's stack
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("core: profiling run panicked: %v", e.Value)
}

// Outcome names how a run that returned err ended, in the one vocabulary of
// run spans and run reports: "ok", "budget", "panic", "interrupted" (the
// context was cancelled or its deadline passed) or "error".
func Outcome(err error) string {
	if err == nil {
		return "ok"
	}
	var be *BudgetError
	var pe *PanicError
	switch {
	case errors.As(err, &be):
		return "budget"
	case errors.As(err, &pe):
		return "panic"
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return "interrupted"
	default:
		return "error"
	}
}
