package core

import (
	"runtime"
	"runtime/debug"
	"sync/atomic"

	"sigil/internal/telemetry"
	"sigil/internal/tracing"
)

// Classification on a worker goroutine.
//
// Nothing on the interpreter goroutine reads what the classifier computes
// until a poll samples it or the run ends, so the interpreter need not
// wait for it: it hands its records to one worker goroutine, in program
// order, in a few recycled fixed-size batches, and goes on interpreting.
// The worker is the classifier's only reader and writer while it runs: it
// classifies the accesses, mirrors the call stack, closes event segments
// at call boundaries and calls the event sink. A telemetry poll puts a
// sample record in the stream and the worker takes the classifier's half
// of the sample when it gets there; the shadow-chunk budget calls sync and
// the end of the run calls join, which wait for the worker. So samples,
// budget stops, event streams and results are those of inline
// classification.
//
// When the worker is the busier goroutine the interpreter spends its waits
// clearing memory for it: a hand-off that finds no free batch first makes a
// zeroed shadow-chunk buffer, if the one-slot stock is empty, and the shadow
// table takes its next new chunk from the stock before it allocates one. A
// run makes at most one buffer that no chunk needs. Runs with a shadow-chunk
// limit or budget have no stock, so every chunk buffer they make counts.

const (
	batchRecords = 2048 // records per batch
	batchCount   = 3    // batches in circulation
	stockChunks  = 1    // zeroed chunk buffers the interpreter keeps ready
)

// cpusBusy counts the goroutines Sigil runs keep busy in this process: the
// interpreter of each run between ProgramStart and finish, and each
// classification worker.
var cpusBusy atomic.Int64

// claimCPU counts a worker in cpusBusy if that leaves it at or below
// GOMAXPROCS, and reports whether it did. In a process that profiles
// several programs at once, such as the experiments prewarm pool, the runs
// that find no CPU free classify inline instead of crowding the CPUs with
// workers; at GOMAXPROCS 1 every run classifies inline.
//
// The event writer's encoder goroutine (trace.Writer) is not counted, and
// it stays. Degraded mode promises that Emit never blocks on a hung sink
// (TestDegradedHungSinkEmitDoesNotStall), which a writer that encodes and
// writes on the emitting goroutine cannot keep. Counted from NewWriter, it
// would leave claimCPU no CPU at ProgramStart at GOMAXPROCS 2, so every
// 2-CPU event run, canneal-critpath included, would classify inline and
// give back the worker's gain there (profile_x_native 2.24 → 1.79). And
// counting it would buy nothing: no process in this repository starts a
// run while another run's encoder works. The commands and perfbench run
// one run at a time, and the experiments pool emits into a trace.Buffer.
func claimCPU() bool {
	if cpusBusy.Add(1) <= int64(runtime.GOMAXPROCS(0)) {
		return true
	}
	cpusBusy.Add(-1)
	return false
}

// cacheLinePad keeps fields that different goroutines write off a shared
// cache line.
type cacheLinePad [64]byte

// worker is the classification worker and the interpreter's end of its
// pipe.
type worker struct {
	// Interpreter side: the batch being filled, batches handed over and
	// not yet taken back, and batches taken back.
	buf   []record
	n     int
	sent  int
	spare [][]record
	_     cacheLinePad

	full  chan []record      // to the worker, in program order; join closes it
	free  chan []record      // applied, back to the interpreter
	done  chan struct{}      // closed when the worker exits
	tel   *telemetry.Metrics // the run's metrics block, or nil
	trace *tracing.Buf       // the worker's own track, or nil
	_     cacheLinePad

	// Worker side: counters for the worker's span, and a panic recovered
	// on the worker.
	records uint64
	batches uint64
	idle    uint64 // times the worker found no batch waiting
	events  uint64 // events the worker emitted
	failure any
	stack   []byte
	_       cacheLinePad
}

// workerPanic carries a panic recovered on the worker to the interpreter
// goroutine, which re-raises it so the run ends as it would have inline.
type workerPanic struct {
	value any
	stack []byte
}

// startWorker starts the worker with every batch free, and the chunk stock
// when the run sets no shadow-chunk limit or budget.
func (t *Tool) startWorker() {
	w := &worker{
		full:  make(chan []record, batchCount),
		free:  make(chan []record, batchCount),
		done:  make(chan struct{}),
		tel:   t.tel,
		spare: make([][]record, 0, batchCount),
	}
	all := make([]record, batchCount*batchRecords)
	for i := 0; i < batchCount; i++ {
		w.spare = append(w.spare, all[i*batchRecords:(i+1)*batchRecords:(i+1)*batchRecords])
	}
	w.take()
	if t.opts.MaxShadowChunks == 0 && t.opts.MaxShadowChunksHard == 0 {
		t.shadow.stock = make(chan *shadowChunk, stockChunks)
	}
	if b := t.opts.Trace; b != nil {
		w.trace = b.Recorder().Local("classify.worker")
	}
	t.pipe = w
	go w.work(&t.classifier)
}

// work applies batches in the order they arrive until join closes full. A
// panic ends it early, the event sink's included: done then tells the
// interpreter that no more batches will come back, and join re-raises the
// panic.
func (w *worker) work(c *classifier) {
	span := w.trace.Start("classify.worker")
	defer close(w.done)
	defer func() {
		if r := recover(); r != nil {
			w.failure, w.stack = r, debug.Stack()
		}
		span.End(tracing.A("records", w.records), tracing.A("batches", w.batches), tracing.A("idle", w.idle),
			tracing.A("events_emitted", w.events))
	}()
	for {
		var b []record
		var ok bool
		select {
		case b, ok = <-w.full:
		default:
			w.idle++
			b, ok = <-w.full
		}
		if !ok {
			return
		}
		emitted := c.emitted
		w.run(c, b)
		w.records += uint64(len(b))
		w.batches++
		w.events += c.emitted - emitted
		w.free <- b // never blocks: free has room for every batch
	}
}

// run applies a batch in order. sync runs it on the interpreter goroutine
// too, while the worker is idle.
//
//sigil:hot
func (w *worker) run(c *classifier, b []record) {
	for i := range b {
		r := &b[i]
		if r.op == opSample {
			c.sample(w.tel, w.trace, r)
			continue
		}
		c.apply(r)
	}
}

// send puts r in the batch being filled and hands the batch over when it
// is full.
//
//sigil:hot
func (t *Tool) send(r record) {
	w := t.pipe
	w.buf[w.n] = r
	w.n++
	if w.n == len(w.buf) {
		t.handOff()
	}
}

// take makes a spare batch the one being filled.
func (w *worker) take() {
	k := len(w.spare) - 1
	w.buf, w.n = w.spare[k], 0
	w.spare = w.spare[:k]
}

// keep takes back one applied batch.
func (w *worker) keep(b []record) {
	w.sent--
	w.spare = append(w.spare, b[:cap(b)])
}

// reclaim takes back the batches the worker has already applied.
func (w *worker) reclaim() {
	for w.sent > 0 {
		select {
		case b := <-w.free:
			w.keep(b)
		default:
			return
		}
	}
}

// drain hands over the partial batch, if any, and takes back every batch
// handed to the worker. It reports whether it had to block for them, and ok
// false when the worker exited instead: it failed, and join re-raises the
// failure.
func (w *worker) drain() (waited, ok bool) {
	if w.n > 0 {
		w.full <- w.buf[:w.n] // never blocks: full has room for every batch
		w.sent++
		w.buf, w.n = nil, 0
	}
	for w.reclaim(); w.sent > 0; {
		waited = true
		select {
		case b := <-w.free:
			w.keep(b)
		case <-w.done:
			return waited, false
		}
	}
	if w.buf == nil {
		w.take()
	}
	return waited, true
}

// handOff passes the full batch to the worker and takes a free one,
// blocking only when the worker still holds every other batch. Before it
// blocks, it restocks.
func (t *Tool) handOff() {
	w := t.pipe
	w.full <- w.buf // never blocks: full has room for every batch
	w.sent++
	w.buf, w.n = nil, 0
	if len(w.spare) == 0 {
		select {
		case b := <-w.free:
			w.keep(b)
		default:
			t.waits++
			t.shadow.restock()
			select {
			case b := <-w.free:
				w.keep(b)
			case <-w.done:
				t.join() // re-raises the worker's panic
				return
			}
		}
	}
	w.take()
}

// sync brings the classifier up to date for a reader on the interpreter
// goroutine (the shadow-chunk budget). While the worker is busy, the partial
// batch follows the others and sync waits until the worker has applied them
// all; an idle worker is not woken for it: sync applies the partial batch
// itself.
func (t *Tool) sync() {
	w := t.pipe
	if w == nil {
		return
	}
	if w.reclaim(); w.sent == 0 {
		b := w.buf[:w.n]
		w.n = 0
		w.run(&t.classifier, b)
		return
	}
	waited, ok := w.drain()
	if waited {
		t.waits++
	}
	if !ok {
		t.join()
	}
}

// join applies every record on the worker and ends it; classification is
// inline, with no chunk stock, from then on. A panic recovered on the
// worker is re-raised here, once, on the interpreter goroutine.
func (t *Tool) join() {
	w := t.pipe
	if w == nil {
		return
	}
	t.pipe = nil
	if waited, _ := w.drain(); waited {
		t.waits++
	}
	close(w.full)
	<-w.done
	t.shadow.stock = nil // a buffer still stocked is garbage
	cpusBusy.Add(-1)
	if w.failure != nil {
		panic(&workerPanic{value: w.failure, stack: w.stack}) //sigil:lint-allow panicfree runTool recovers it as the run's *PanicError
	}
}
