package trace

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"sigil/internal/faultinject"
	"sigil/internal/tracing"
)

// WriterOptions tunes the v3 Writer. The zero value selects the defaults.
type WriterOptions struct {
	// FrameEvents is the number of events per frame (default 4096).
	// Smaller frames lose less data on a crash and parallelize shorter
	// decodes; larger frames compress and amortize better.
	FrameEvents int
	// MaxRetries bounds how many times a failing sink write is retried
	// (beyond the first attempt) before the error is surfaced. Zero
	// disables retry. The retry layer sits beneath the writer's bufio
	// buffer — bufio poisons itself on the first error it sees — and
	// resumes short writes from the unwritten suffix, so a successful
	// retry never tears or duplicates bytes.
	MaxRetries int
	// RetryBackoff is the wait before the first retry; it doubles on each
	// subsequent one. Default 1ms.
	RetryBackoff time.Duration
	// RetryCtx, when set, cancels in-flight backoff waits — a run being
	// torn down should not sit out a backoff schedule. Default Background.
	RetryCtx context.Context
	// Degraded selects degraded mode: the writer bounds every stall and
	// never surfaces sink errors through Emit. A hand-off to a saturated
	// encoder waits at most DegradedGrace; past that, whole batches are
	// dropped and counted exactly (WriterStats.Dropped; the footer's loss
	// record), and while saturation persists further batches drop without
	// waiting. The aggregate profile and the interpreter are unaffected —
	// only the event stream loses frames.
	Degraded bool
	// DegradedGrace is the longest a degraded writer will wait on the
	// encoder before shedding a batch (default 50ms). It is paid once per
	// saturation episode, not per batch.
	DegradedGrace time.Duration
	// clock substitutes the retry layer's backoff waits in tests.
	clock sleeper
	// Trace, when non-nil, records per-frame encode spans on the encoder
	// goroutine. The buffer must be dedicated to this writer: the encoder
	// owns it from construction until Close returns. Stall, shed,
	// degraded-transition, and retry events always go to the process
	// flight recorder regardless — they are rare slow-path events.
	Trace *tracing.Buf
}

// Writer encodes events to an io.Writer in the v3 format. Emit appends to
// an in-memory batch on the caller's goroutine; a background encoder
// goroutine delta-encodes, compresses and writes each full batch as one
// frame, so the interpreter hot loop never pays varint or DEFLATE costs.
// Batches are double-buffered: Emit only blocks (a counted stall) when the
// encoder falls a full frame behind. Close flushes the final partial
// frame, writes the footer (frame index + totals), and must be called —
// without it the stream is detectably incomplete and the encoder goroutine
// leaks.
type Writer struct {
	// Caller-goroutine state.
	cur         []Event
	count       uint64
	frameEvents int
	closed      bool
	degradedOpt bool          // Degraded option: drop instead of block or error
	degradedNow bool          // currently shedding: skip the grace wait
	grace       time.Duration // longest wait on a saturated encoder

	// Hand-off: three batch slabs circulate between the caller and the
	// encoder (one being filled, up to two queued or in encode).
	work chan []Event
	free chan []Event
	done chan struct{}

	mu  sync.Mutex
	err error

	// Backpressure and volume accounting, readable concurrently via Stats.
	stalls    atomic.Uint64
	queued    atomic.Int64
	frames    atomic.Uint64
	rawBytes  atomic.Uint64
	compBytes atomic.Uint64
	dropped   atomic.Uint64 // events discarded (degraded drops + post-error drains)
	degraded  atomic.Bool   // a degraded-mode writer has started losing events

	// rw is the retry layer beneath bufio, nil when MaxRetries is zero;
	// kept for its retry counter.
	rw *retryWriter

	// trace is the encoder goroutine's span buffer (nil = spans off).
	trace *tracing.Buf

	// Encoder-goroutine state; the caller may touch it only after done is
	// closed (Close does, to write the footer).
	w          *bufio.Writer
	enc        *frameEncoder
	index      []frameEntry
	wroteMagic bool
}

// NewWriter returns a v3 Writer targeting w with default options. Call
// Close to write the footer and flush; without it the stream is detectably
// incomplete.
func NewWriter(w io.Writer) *Writer {
	return NewWriterOptions(w, WriterOptions{})
}

// NewWriterOptions returns a v3 Writer with explicit framing options. The
// sink is layered (bottom up): the trace.v3.write fault point wraps w, the
// optional retry layer absorbs transient failures, and bufio batches the
// frame writes — so injected faults exercise retry, and retry happens
// beneath bufio's sticky-error behavior.
func NewWriterOptions(w io.Writer, opts WriterOptions) *Writer {
	if opts.FrameEvents <= 0 {
		opts.FrameEvents = defaultFrameEvents
	}
	target := faultinject.WrapWriter(faultinject.TraceWriteV3, w)
	var rw *retryWriter
	if opts.MaxRetries > 0 {
		rw = newRetryWriter(target, opts.MaxRetries, opts.RetryBackoff, opts.RetryCtx, opts.clock)
		target = rw
	}
	if opts.DegradedGrace <= 0 {
		opts.DegradedGrace = 50 * time.Millisecond
	}
	wr := &Writer{
		frameEvents: opts.FrameEvents,
		degradedOpt: opts.Degraded,
		grace:       opts.DegradedGrace,
		work:        make(chan []Event, 2),
		free:        make(chan []Event, 3),
		done:        make(chan struct{}),
		w:           bufio.NewWriterSize(target, 1<<16),
		enc:         getFrameEncoder(),
		rw:          rw,
		trace:       opts.Trace,
	}
	wr.cur = getSlab(opts.FrameEvents)
	wr.free <- getSlab(opts.FrameEvents)
	wr.free <- getSlab(opts.FrameEvents)
	go wr.encodeLoop()
	return wr
}

// slabPool recycles event batch slabs across writer lifetimes; at the
// default frame size each slab is ~300 KiB, and three circulate per writer.
// Slabs are cleared before pooling so they do not pin event name strings.
var slabPool sync.Pool

// getSlab returns an empty slab with at least n capacity, recycling a
// pooled one when it is big enough (a smaller pooled slab is discarded —
// growing it would defeat the pool).
func getSlab(n int) []Event {
	if p, ok := slabPool.Get().(*[]Event); ok && cap(*p) >= n {
		return (*p)[:0]
	}
	return make([]Event, 0, n)
}

func putSlab(s []Event) {
	if cap(s) == 0 {
		return
	}
	s = s[:cap(s)]
	clear(s)
	s = s[:0]
	slabPool.Put(&s)
}

// Emit implements Sink. The event is buffered; encoding, compression and
// the write happen on the background encoder. Errors from earlier frames
// surface here (and on Close) — profiling continues, later events are
// dropped by the caller's error handling as with any failing sink.
//
//sigil:hot
func (w *Writer) Emit(e Event) error {
	if w.closed {
		return errors.New("trace: emit after Close")
	}
	w.cur = append(w.cur, e)
	w.count++
	if len(w.cur) >= w.frameEvents {
		return w.flush()
	}
	return nil
}

// flush hands the full batch to the encoder and picks up an empty slab,
// counting a stall whenever either side would block (the encoder is a full
// frame behind — the backpressure the double buffer is sized to absorb).
// In degraded mode neither side ever blocks: a full queue drops the batch
// (counted exactly), an empty free list is replaced by a fresh slab, and
// sink errors are not surfaced — Emit must never stall the interpreter.
func (w *Writer) flush() error {
	if w.degradedOpt {
		w.flushDegraded()
		return nil
	}
	w.queued.Add(1)
	select {
	case w.work <- w.cur:
	default:
		w.recordStall()
		w.work <- w.cur
	}
	select {
	case b := <-w.free:
		w.cur = b[:0]
	default:
		w.recordStall()
		w.cur = (<-w.free)[:0]
	}
	return w.firstErr()
}

// recordStall counts a backpressure stall and drops it into the flight
// recorder — a stalling writer is exactly what a post-mortem dump needs to
// show.
func (w *Writer) recordStall() {
	tracing.Flight().Record(tracing.KindStall, "trace.writer", w.stalls.Add(1), 0)
}

// markDegraded latches the degraded flag, recording the transition once.
func (w *Writer) markDegraded() {
	if !w.degraded.Swap(true) {
		tracing.Flight().Record(tracing.KindDegraded, "trace.writer", 0, 0)
	}
}

// flushDegraded is flush's bounded variant. A hand-off to an encoder with
// room is free; a saturated encoder gets one grace wait — enough for a busy
// sink to catch up, not enough for a dead one to stall the run — and past
// that the batch is dropped with its exact size counted. While saturation
// persists (degradedNow), later batches drop without paying the grace wait
// again; a hand-off that goes through ends the episode.
func (w *Writer) flushDegraded() {
	select {
	case w.work <- w.cur:
		w.degradedNow = false
		w.handedOff()
		return
	default:
	}
	if w.degradedNow {
		w.dropBatch()
		return
	}
	w.recordStall()
	t := time.NewTimer(w.grace)
	defer t.Stop()
	select {
	case w.work <- w.cur:
		w.handedOff()
	case <-t.C:
		w.degradedNow = true
		w.dropBatch()
	}
}

// handedOff completes a successful degraded hand-off: account the batch
// and pick up a slab without ever blocking on the free list.
func (w *Writer) handedOff() {
	w.queued.Add(1)
	select {
	case b := <-w.free:
		w.cur = b[:0]
	default:
		// All slabs in flight; a fresh one keeps Emit non-blocking.
		// Excess slabs fall out of circulation at the encoder's
		// non-blocking return to the bounded free list.
		w.cur = getSlab(w.frameEvents)
	}
}

// dropBatch sheds the current batch, recording the exact loss.
func (w *Writer) dropBatch() {
	shed := uint64(len(w.cur))
	tracing.Flight().Record(tracing.KindShed, "trace.writer", shed, w.dropped.Add(shed))
	w.markDegraded()
	w.cur = w.cur[:0]
}

// encodeLoop is the background encoder: one frame per batch, slabs
// recycled through the free list. On a write error it keeps draining (so
// Emit never deadlocks) but writes nothing further; drained batches are
// counted into the drop total so the loss is exact, not silent.
func (w *Writer) encodeLoop() {
	defer close(w.done)
	root := w.trace.Start("trace.encode")
	defer root.End()
	for batch := range w.work {
		if w.firstErr() == nil {
			sp := w.trace.Start("trace.frame")
			err := w.writeFrame(batch)
			sp.End(tracing.A("events", len(batch)))
			if err != nil {
				w.setErr(err)
				// The failed frame's events were not persisted.
				shed := w.dropped.Add(uint64(len(batch)))
				tracing.Flight().Record(tracing.KindShed, "trace.encode", uint64(len(batch)), shed)
				if w.degradedOpt {
					w.markDegraded()
				}
			}
		} else {
			w.dropped.Add(uint64(len(batch)))
			if w.degradedOpt {
				w.markDegraded()
			}
		}
		w.queued.Add(-1)
		select {
		case w.free <- batch[:0]:
		default:
			// The free list is full (an excess degraded-mode slab) or Close
			// drained it; recycle the slab for the next writer.
			putSlab(batch)
		}
	}
}

func (w *Writer) writeFrame(batch []Event) error {
	if len(batch) == 0 {
		return nil
	}
	if !w.wroteMagic {
		if _, err := w.w.Write(magic); err != nil {
			return err
		}
		w.wroteMagic = true
	}
	head, payload, err := w.enc.encode(batch)
	if err != nil {
		return err
	}
	if _, err := w.w.Write(head); err != nil {
		return err
	}
	if _, err := w.w.Write(payload); err != nil {
		return err
	}
	w.index = append(w.index, frameEntry{
		events: uint64(len(batch)),
		bytes:  uint64(len(head) + len(payload)),
	})
	w.frames.Add(1)
	w.rawBytes.Add(uint64(len(w.enc.raw)))
	w.compBytes.Add(uint64(len(head) + len(payload)))
	return nil
}

func (w *Writer) firstErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

func (w *Writer) setErr(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
}

// Count reports the number of events emitted so far, for progress
// reporting and end-of-run accounting against telemetry snapshots.
func (w *Writer) Count() uint64 { return w.count }

// WriterStats is a point-in-time view of the writer's async pipeline, the
// numbers behind the sigil_event_* telemetry series.
type WriterStats struct {
	Events          uint64 // events accepted by Emit
	Frames          uint64 // frames written by the encoder
	QueueDepth      int    // batches handed off but not yet encoded
	Stalls          uint64 // Emit hand-offs that blocked on the encoder
	RawBytes        uint64 // payload bytes before compression
	CompressedBytes uint64 // frame bytes on the wire (headers included)
	Dropped         uint64 // events discarded instead of persisted (exact loss)
	Retries         uint64 // sink writes retried by the backoff layer
	Degraded        bool   // a degraded-mode writer has started losing events
}

// Stats returns the writer's pipeline counters. Safe to call concurrently
// with the encoder; Events is owned by the emitting goroutine.
func (w *Writer) Stats() WriterStats {
	s := WriterStats{
		Events:          w.count,
		Frames:          w.frames.Load(),
		QueueDepth:      int(w.queued.Load()),
		Stalls:          w.stalls.Load(),
		RawBytes:        w.rawBytes.Load(),
		CompressedBytes: w.compBytes.Load(),
		Dropped:         w.dropped.Load(),
		Degraded:        w.degraded.Load(),
	}
	if w.rw != nil {
		s.Retries = w.rw.retries.Load()
	}
	return s
}

// Close flushes the final partial frame, stops the encoder, writes the
// footer (frame index, totals, trailer) and flushes buffered bytes. A
// writer that dropped events writes the loss-variant footer, recording the
// exact count; the footer's event total covers only the events that made it
// into frames. The underlying writer is not closed. Close is idempotent;
// after it, Emit fails. Sink errors — including ones a degraded writer
// absorbed during the run — surface here.
func (w *Writer) Close() error {
	if w.closed {
		return w.firstErr()
	}
	w.closed = true
	if len(w.cur) > 0 {
		if w.degradedOpt {
			w.flushDegraded()
			// flushDegraded recycles the slab; anything left was dropped.
		} else {
			w.queued.Add(1)
			w.work <- w.cur
		}
		w.cur = nil
	}
	close(w.work)
	<-w.done
	// The encoder has exited: its state (w.w, w.index, wroteMagic) is ours.
	// Recycle the batch machinery before the error check so failed streams
	// return their slabs and compressor state too.
	putSlab(w.cur)
	w.cur = nil
	for {
		select {
		case s := <-w.free:
			putSlab(s)
			continue
		default:
		}
		break
	}
	putFrameEncoder(w.enc)
	w.enc = nil
	if err := w.firstErr(); err != nil {
		return err
	}
	if !w.wroteMagic {
		if _, err := w.w.Write(magic); err != nil {
			return err
		}
		w.wroteMagic = true
	}
	dropped := w.dropped.Load()
	foot := appendFooter(nil, w.index, w.count-dropped, dropped)
	if _, err := w.w.Write(foot); err != nil {
		return err
	}
	if err := w.w.Flush(); err != nil {
		return fmt.Errorf("trace: flushing stream: %w", err)
	}
	return nil
}

var _ io.Closer = (*Writer)(nil)
