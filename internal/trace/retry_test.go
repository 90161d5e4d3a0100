package trace

import (
	"bytes"
	"context"
	"errors"
	"io"
	"syscall"
	"testing"
	"time"
)

// fakeClock records backoff waits without sleeping, optionally cancelling
// its context partway through the schedule.
type fakeClock struct {
	waits       []time.Duration
	cancelAfter int // cancel() after this many Sleep calls (0 = never)
	cancel      context.CancelFunc
}

func (c *fakeClock) Sleep(ctx context.Context, d time.Duration) error {
	c.waits = append(c.waits, d)
	if c.cancelAfter > 0 && len(c.waits) >= c.cancelAfter && c.cancel != nil {
		c.cancel()
	}
	return ctx.Err()
}

// flakySink fails its first failures writes, then accepts everything.
type flakySink struct {
	bytes.Buffer
	failures int
	attempts int
	err      error
}

func (s *flakySink) Write(p []byte) (int, error) {
	s.attempts++
	if s.attempts <= s.failures {
		err := s.err
		if err == nil {
			err = errors.New("transient sink error")
		}
		return 0, err
	}
	return s.Buffer.Write(p)
}

// shortSink accepts only half of each write's bytes (with nil error) until
// its quota of misbehaviors runs out.
type shortSink struct {
	bytes.Buffer
	shorts int
}

func (s *shortSink) Write(p []byte) (int, error) {
	if s.shorts > 0 && len(p) > 1 {
		s.shorts--
		return s.Buffer.Write(p[:len(p)/2])
	}
	return s.Buffer.Write(p)
}

func TestRetrySucceedsAfterN(t *testing.T) {
	sink := &flakySink{failures: 3}
	clock := &fakeClock{}
	rw := newRetryWriter(sink, 5, time.Millisecond, nil, clock)
	n, err := rw.Write([]byte("payload"))
	if err != nil || n != len("payload") {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if got := sink.String(); got != "payload" {
		t.Errorf("sink holds %q", got)
	}
	if rw.retries.Load() != 3 {
		t.Errorf("retries = %d, want 3", rw.retries.Load())
	}
	// Exponential backoff: 1ms, 2ms, 4ms.
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond}
	if len(clock.waits) != len(want) {
		t.Fatalf("waits = %v", clock.waits)
	}
	for i, w := range want {
		if clock.waits[i] != w {
			t.Errorf("wait %d = %v, want %v", i, clock.waits[i], w)
		}
	}
}

func TestRetryGivesUp(t *testing.T) {
	sink := &flakySink{failures: 100}
	clock := &fakeClock{}
	rw := newRetryWriter(sink, 2, time.Millisecond, nil, clock)
	if _, err := rw.Write([]byte("payload")); err == nil {
		t.Fatal("exhausted retries reported success")
	}
	if sink.attempts != 3 { // first try + 2 retries
		t.Errorf("attempts = %d, want 3", sink.attempts)
	}
	if len(clock.waits) != 2 {
		t.Errorf("waits = %v, want 2 backoffs", clock.waits)
	}
}

func TestRetryPermanentSkipsBackoff(t *testing.T) {
	sink := &flakySink{failures: 100, err: syscall.ENOSPC}
	clock := &fakeClock{}
	rw := newRetryWriter(sink, 5, time.Millisecond, nil, clock)
	_, err := rw.Write([]byte("payload"))
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("err = %v, want ENOSPC", err)
	}
	if sink.attempts != 1 || len(clock.waits) != 0 {
		t.Errorf("permanent error retried: %d attempts, waits %v", sink.attempts, clock.waits)
	}
}

func TestRetryContextCancelledDuringBackoff(t *testing.T) {
	sink := &flakySink{failures: 100}
	ctx, cancel := context.WithCancel(context.Background())
	clock := &fakeClock{cancelAfter: 2, cancel: cancel}
	rw := newRetryWriter(sink, 10, time.Millisecond, ctx, clock)
	_, err := rw.Write([]byte("payload"))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sink.attempts != 2 {
		t.Errorf("attempts = %d, want 2 (cancelled during second backoff)", sink.attempts)
	}
}

func TestRetryResumesShortWrites(t *testing.T) {
	sink := &shortSink{shorts: 3}
	clock := &fakeClock{}
	rw := newRetryWriter(sink, 5, time.Millisecond, nil, clock)
	payload := []byte("0123456789abcdef")
	n, err := rw.Write(payload)
	if err != nil || n != len(payload) {
		t.Fatalf("Write = %d, %v", n, err)
	}
	// Each short write accepted a prefix; the retries must resume from the
	// unwritten suffix so the sink ends up with the bytes exactly once.
	if got := sink.String(); got != string(payload) {
		t.Errorf("sink holds %q, want %q", got, payload)
	}
}

func TestRetryHostileWriterClampsProgress(t *testing.T) {
	// A sink lying that it wrote more than it was given must not corrupt
	// the resume offset (or panic the slice arithmetic).
	hostile := writerFunc(func(p []byte) (int, error) {
		return len(p) + 10, errors.New("liar")
	})
	clock := &fakeClock{}
	rw := newRetryWriter(hostile, 1, time.Millisecond, nil, clock)
	if _, err := rw.Write([]byte("data")); err == nil {
		t.Fatal("hostile sink reported success")
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestWriterRetriesTransientSinkError drives retry through the full v3
// writer: a sink failing its first two writes must not lose the stream.
func TestWriterRetriesTransientSinkError(t *testing.T) {
	sink := &flakySink{failures: 2}
	clock := &fakeClock{}
	w := NewWriterOptions(sink, WriterOptions{MaxRetries: 3, clock: clock})
	events := genEvents(500)
	for _, e := range events {
		if err := w.Emit(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.Retries == 0 {
		t.Error("no retries recorded")
	}
	tr, err := ReadAll(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events)+len(tr.Contexts) != len(events) {
		t.Errorf("recovered %d+%d of %d events", len(tr.Events), len(tr.Contexts), len(events))
	}
	if tr.EventsDropped != 0 {
		t.Errorf("EventsDropped = %d after successful retries", tr.EventsDropped)
	}
}

var _ io.Writer = writerFunc(nil)
