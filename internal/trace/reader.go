package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"sync"

	"sigil/internal/faultinject"
)

// Reader decodes an event stream. Hitting end of input without the footer
// yields ErrTruncated instead of io.EOF, and checksums that disagree with
// the bytes read yield ErrCorrupt — so a clean io.EOF certifies the stream
// complete and checksummed. Frames are verified and decoded one at a time;
// ReadAll decodes them on a worker pool instead.
type Reader struct {
	br         *bufio.Reader
	started    bool
	read       int64         // bytes consumed after the magic
	fr         io.ReadCloser // reusable flate reader
	comp       []byte        // compressed payload scratch
	raw        []byte        // inflated payload scratch
	events     []Event       // decoded current frame
	pos        int
	frames     uint64 // frames decoded so far
	count      uint64 // events served so far
	footerSeen bool
	dropped    uint64 // loss footer's recorded write-side drop count
}

// NewReader returns a Reader over r. The source passes through the
// trace.read fault point, so the chaos sweep can inject read errors and
// in-flight corruption beneath the decoder.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(faultinject.WrapReader(faultinject.TraceRead, r), 1<<16)}
}

// readHeader consumes and validates the magic; it is idempotent.
func (r *Reader) readHeader() error {
	if r.started {
		return nil
	}
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(r.br, head); err != nil {
		return fmt.Errorf("trace: reading header: %w", err)
	}
	for i, m := range magic[:len(magic)-1] {
		if head[i] != m {
			return errors.New("trace: bad magic (not an event file)")
		}
	}
	if v := head[len(magic)-1]; v != magic[len(magic)-1] {
		return fmt.Errorf("trace: unsupported format version %d", v)
	}
	r.started = true
	return nil
}

func (r *Reader) readByte() (byte, error) {
	b, err := r.br.ReadByte()
	if err == nil {
		r.read++
	}
	return b, err
}

func (r *Reader) readFull(p []byte) error {
	n, err := io.ReadFull(r.br, p)
	r.read += int64(n)
	return err
}

// byteReaderFunc adapts a readByte method to io.ByteReader.
type byteReaderFunc func() (byte, error)

func (f byteReaderFunc) ReadByte() (byte, error) { return f() }

// cutShort types a read failure inside a record: end of input is a
// truncated stream, and any other failure (a failing disk, an injected
// fault) passes through so it is not mistaken for a crashed writer.
func cutShort(what string, err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: %s cut short", ErrTruncated, what)
	}
	return fmt.Errorf("trace: reading %s: %w", what, err)
}

// nextRecord fetches the next record. For a frame it parses the header and
// reads the compressed payload, into buf when buf has room; the payload is
// not yet verified. For a footer it returns the marker alone and leaves the
// body to readFooterFields. Truncation and corruption are typed here for
// every caller: end of input where a record should start is ErrTruncated,
// an unknown marker or implausible header is ErrCorrupt.
func (r *Reader) nextRecord(buf []byte) (marker byte, h frameHeader, comp []byte, err error) {
	marker, err = r.readByte()
	if errors.Is(err, io.EOF) {
		return 0, h, buf, ErrTruncated
	}
	if err != nil {
		return 0, h, buf, fmt.Errorf("trace: reading record marker: %w", err)
	}
	switch marker {
	case footerByte, footerLossByte:
		return marker, h, buf, nil
	case frameByte:
	default:
		return 0, h, buf, fmt.Errorf("%w: unknown record marker %#x", ErrCorrupt, marker)
	}
	if h, err = readFrameHeader(byteReaderFunc(r.readByte)); err != nil {
		if errors.Is(err, ErrCorrupt) {
			return 0, h, buf, err
		}
		return 0, h, buf, cutShort("frame header", err)
	}
	if cap(buf) < h.compSize {
		buf = make([]byte, h.compSize)
	}
	buf = buf[:h.compSize]
	if err := r.readFull(buf); err != nil {
		return 0, h, buf, cutShort("frame payload", err)
	}
	return marker, h, buf, nil
}

// Next returns the next event, or io.EOF at a verified end of stream.
func (r *Reader) Next() (Event, error) {
	if err := r.readHeader(); err != nil {
		return Event{}, err
	}
	for r.pos >= len(r.events) {
		if r.footerSeen {
			return Event{}, io.EOF
		}
		if err := r.loadFrame(); err != nil {
			return Event{}, err
		}
	}
	e := r.events[r.pos]
	r.pos++
	r.count++
	return e, nil
}

// loadFrame fetches, verifies and decodes the next frame, or validates the
// footer and trailer at end of stream.
func (r *Reader) loadFrame() error {
	marker, h, comp, err := r.nextRecord(r.comp)
	r.comp = comp
	if err != nil {
		return err
	}
	if marker != frameByte {
		ff, err := r.readFooterFields(marker == footerLossByte)
		if err == nil {
			err = ff.check(r.frames, r.count)
		}
		if err != nil {
			return err
		}
		r.dropped = ff.dropped
		r.footerSeen = true
		return nil
	}
	if err := r.decodeFrame(h); err != nil {
		return err
	}
	r.pos = 0
	r.frames++
	return nil
}

// decodeFrame verifies and inflates the payload nextRecord left in r.comp
// and decodes it into r.events.
func (r *Reader) decodeFrame(h frameHeader) error {
	raw, fr, err := inflateFrame(h, r.comp, r.raw, r.fr)
	r.raw, r.fr = raw, fr
	if err != nil {
		return err
	}
	r.events, err = decodePayload(r.raw, h.events, r.events[:0])
	return err
}

// footerFields is a streaming-parsed, CRC-verified footer (trailer
// included): what every decode path validates the stream against.
type footerFields struct {
	frameCount  uint64
	indexEvents uint64 // sum of the index entries' event counts
	total       uint64
	dropped     uint64 // loss footers only
}

// check compares the footer with the frames and events a decode saw.
func (ff footerFields) check(frames, events uint64) error {
	if ff.frameCount != frames || ff.total != events || ff.indexEvents != events {
		return fmt.Errorf("%w: footer says %d frames / %d events, stream has %d frames / %d events",
			ErrCorrupt, ff.frameCount, ff.total, frames, events)
	}
	return nil
}

// readFooterFields consumes the footer body after its marker, verifies the
// body CRC and the fixed trailer, and returns the parsed fields. It
// reconstructs the body bytes as it reads so the checksum covers exactly
// what the writer signed.
func (r *Reader) readFooterFields(hasLoss bool) (footerFields, error) {
	var ff footerFields
	var body []byte
	readUvarint := func() (uint64, error) {
		v, err := binary.ReadUvarint(byteReaderFunc(r.readByte))
		if err != nil {
			return 0, cutShort("footer", err)
		}
		body = binary.AppendUvarint(body, v)
		return v, nil
	}
	var err error
	if ff.frameCount, err = readUvarint(); err != nil {
		return ff, err
	}
	if ff.frameCount > maxFrameEvents {
		return ff, fmt.Errorf("%w: implausible frame count %d", ErrCorrupt, ff.frameCount)
	}
	for i := uint64(0); i < ff.frameCount; i++ {
		ev, err := readUvarint()
		if err != nil {
			return ff, err
		}
		if _, err := readUvarint(); err != nil { // frame byte length
			return ff, err
		}
		ff.indexEvents += ev
	}
	if ff.total, err = readUvarint(); err != nil {
		return ff, err
	}
	if hasLoss {
		if ff.dropped, err = readUvarint(); err != nil {
			return ff, err
		}
	}
	wantCRC, err := binary.ReadUvarint(byteReaderFunc(r.readByte))
	if err != nil {
		return ff, cutShort("footer", err)
	}
	if uint32(wantCRC) != crc32.ChecksumIEEE(body) {
		return ff, fmt.Errorf("%w: footer checksum mismatch", ErrCorrupt)
	}
	var tail [trailerLen]byte
	if err := r.readFull(tail[:]); err != nil {
		return ff, cutShort("trailer", err)
	}
	if [4]byte(tail[4:8]) != trailerMagic {
		return ff, fmt.Errorf("%w: bad trailer magic", ErrCorrupt)
	}
	return ff, nil
}

// ReadAll loads an entire stream, separating context definitions from the
// event sequence. Frames are decoded with one worker per CPU; use
// ReadAllWorkers to pick the pool size explicitly.
func ReadAll(r io.Reader) (*Trace, error) {
	return ReadAllWorkers(r, runtime.GOMAXPROCS(0))
}

// ReadAllWorkers loads an entire stream, decoding frames on a pool of
// `workers` goroutines with an ordered merge (workers <= 1 decodes
// sequentially). When r supports seeking, the footer is consulted up front
// to preallocate the event slice.
func ReadAllWorkers(r io.Reader, workers int) (*Trace, error) {
	var pre *footerInfo
	if rs, ok := r.(io.ReadSeeker); ok {
		pre = peekFooter(rs)
	}
	rd := NewReader(r)
	if err := rd.readHeader(); err != nil {
		return nil, err
	}
	if workers > 1 {
		return readAllParallel(rd, workers, pre)
	}
	return readAllSequential(rd, pre)
}

func newTrace(pre *footerInfo) *Trace {
	tr := &Trace{Contexts: make(map[int32]CtxInfo)}
	if pre != nil && pre.total > 0 {
		tr.Events = make([]Event, 0, pre.total)
	}
	return tr
}

func (t *Trace) add(e Event) {
	if e.Kind == KindDefCtx {
		t.Contexts[e.Ctx] = CtxInfo{ID: e.Ctx, Parent: e.SrcCtx, Name: e.Name}
		return
	}
	t.Events = append(t.Events, e)
}

func readAllSequential(rd *Reader, pre *footerInfo) (*Trace, error) {
	tr := newTrace(pre)
	for {
		e, err := rd.Next()
		if errors.Is(err, io.EOF) {
			tr.EventsDropped = rd.dropped
			return tr, nil
		}
		if err != nil {
			return nil, err
		}
		tr.add(e)
	}
}

// frameJob is one fetched-but-undecoded frame on its way to a worker.
type frameJob struct {
	idx  int
	head frameHeader
	comp []byte
}

// frameRes is one decoded frame (or the error that killed it).
type frameRes struct {
	idx    int
	events []Event
	err    error
}

// dispatchEnd reports how the frame-fetch loop finished.
type dispatchEnd struct {
	frames int
	foot   footerFields
	err    error
}

// readAllParallel is the fast path: the caller's goroutine fetches frames
// in stream order (cheap, sequential I/O), a bounded worker pool
// checksums/inflates/decodes them, and the results are merged back in frame
// order. The error surfaced matches sequential semantics: the lowest-indexed
// failure wins, and footer mismatches are checked against the merged
// totals. Once the merge has copied a frame's events it hands the slice
// back to the workers through a bounded free list, so a stream needs about
// a pool's width of frame buffers instead of one per frame.
func readAllParallel(rd *Reader, workers int, pre *footerInfo) (*Trace, error) {
	jobs := make(chan frameJob, workers)
	results := make(chan frameRes, workers)
	// Two buffers per worker cover the frames a pool has in flight (one
	// decoding, one queued for the merge); the merge drops any beyond that.
	free := make(chan []Event, 2*workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var fr io.ReadCloser
			var raw []byte
			for job := range jobs {
				var res frameRes
				res.idx = job.idx
				var err error
				raw, fr, err = inflateFrame(job.head, job.comp, raw, fr)
				if err == nil {
					// Decode into a merged frame's buffer when one is
					// free: the result outlives the worker's scratch.
					select {
					case res.events = <-free:
					default:
					}
					if cap(res.events) < job.head.events {
						res.events = make([]Event, 0, job.head.events)
					}
					res.events, err = decodePayload(raw, job.head.events, res.events[:0])
				}
				res.err = err
				results <- res
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Fetch loop: runs in its own goroutine so the merge below can drain
	// results (otherwise a full results buffer would deadlock the pool).
	endCh := make(chan dispatchEnd, 1)
	go func() {
		defer close(jobs)
		for idx := 0; ; idx++ {
			marker, h, comp, err := rd.nextRecord(nil)
			if err == nil && marker != frameByte {
				var ff footerFields
				ff, err = rd.readFooterFields(marker == footerLossByte)
				endCh <- dispatchEnd{frames: idx, foot: ff, err: err}
				return
			}
			if err != nil {
				endCh <- dispatchEnd{frames: idx, err: err}
				return
			}
			jobs <- frameJob{idx: idx, head: h, comp: comp}
		}
	}()

	// Ordered merge: results arrive at most a pool's width out of order.
	tr := newTrace(pre)
	pending := make(map[int]frameRes)
	nextIdx := 0
	var firstErr error
	firstErrIdx := -1
	var merged uint64
	flush := func() {
		for {
			res, ok := pending[nextIdx]
			if !ok {
				return
			}
			delete(pending, nextIdx)
			nextIdx++
			if res.err == nil {
				merged += uint64(len(res.events))
				for _, e := range res.events {
					tr.add(e)
				}
			}
			select {
			case free <- res.events:
			default:
			}
		}
	}
	for res := range results {
		if res.err != nil && (firstErrIdx == -1 || res.idx < firstErrIdx) {
			firstErr, firstErrIdx = res.err, res.idx
		}
		pending[res.idx] = res
		flush()
	}
	end := <-endCh
	if firstErr != nil {
		return nil, firstErr
	}
	if end.err != nil {
		return nil, end.err
	}
	if err := end.foot.check(uint64(end.frames), merged); err != nil {
		return nil, err
	}
	tr.EventsDropped = end.foot.dropped
	return tr, nil
}
