package trace

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"syscall"
	"time"

	"sigil/internal/tracing"
)

// sleeper abstracts the backoff wait so retry tests drive the schedule
// with a fake clock instead of real sleeps. Sleep returns the context's
// error if it is cancelled before the wait elapses.
type sleeper interface {
	Sleep(ctx context.Context, d time.Duration) error
}

// realSleeper waits on a timer, honoring cancellation.
type realSleeper struct{}

func (realSleeper) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// defaultPermanent classifies errors no retry can fix: a full disk stays
// full on the timescale of a backoff schedule, and a cancelled context
// means the run is being torn down.
func defaultPermanent(err error) bool {
	return errors.Is(err, syscall.ENOSPC) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// retryWriter adds bounded retry-with-backoff to an io.Writer. It sits
// beneath the v3 writer's bufio layer — bufio poisons itself on the first
// error, so transient sink failures must be absorbed before bufio sees
// them. A short write (with or without an error) resumes from the
// unwritten suffix, so a sink that accepted a prefix is never sent the
// same bytes twice and the stream stays tear-free across a successful
// retry.
type retryWriter struct {
	w       io.Writer
	max     int           // retries after the first attempt
	backoff time.Duration // first retry's wait; doubles per retry
	ctx     context.Context
	clock   sleeper
	retries atomic.Uint64 // attempts beyond the first, across all writes
}

func newRetryWriter(w io.Writer, max int, backoff time.Duration, ctx context.Context, clock sleeper) *retryWriter {
	if backoff <= 0 {
		backoff = time.Millisecond
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if clock == nil {
		clock = realSleeper{}
	}
	return &retryWriter{w: w, max: max, backoff: backoff, ctx: ctx, clock: clock}
}

func (rw *retryWriter) Write(p []byte) (int, error) {
	written := 0
	delay := rw.backoff
	for attempt := 0; ; attempt++ {
		n, err := rw.w.Write(p)
		if n < 0 || n > len(p) {
			// A hostile sink lying about progress: treat as no progress
			// rather than corrupting the resume offset.
			n = 0
		}
		written += n
		p = p[n:]
		if err == nil && len(p) == 0 {
			return written, nil
		}
		if err == nil {
			err = io.ErrShortWrite
		}
		if attempt >= rw.max || defaultPermanent(err) {
			return written, err
		}
		tracing.Flight().Record(tracing.KindRetry, "trace.sink", rw.retries.Add(1), 0)
		if serr := rw.clock.Sleep(rw.ctx, delay); serr != nil {
			return written, fmt.Errorf("trace: retry abandoned: %w (last sink error: %v)", serr, err)
		}
		delay *= 2
	}
}
