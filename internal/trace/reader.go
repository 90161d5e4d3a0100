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

// hashReader tees every byte delivered to the v1/v2 decoder into a running
// CRC-32 and byte count, so the Reader can verify the v2 footer and
// Salvage can report how many bytes of valid prefix it consumed.
type hashReader struct {
	r     *bufio.Reader
	crc   uint32
	bytes int64
}

func (h *hashReader) ReadByte() (byte, error) {
	b, err := h.r.ReadByte()
	if err == nil {
		h.crc = crc32.Update(h.crc, crc32.IEEETable, []byte{b})
		h.bytes++
	}
	return b, err
}

func (h *hashReader) readFull(p []byte) error {
	// Count partial reads too: on a mid-record cut the consumed bytes must
	// still show up in Salvage's byte accounting.
	n, err := io.ReadFull(h.r, p)
	h.crc = crc32.Update(h.crc, crc32.IEEETable, p[:n])
	h.bytes += int64(n)
	return err
}

// v3state is the sequential version-3 decoder: one frame is fetched,
// verified and decoded at a time, and Next serves from the decoded batch.
type v3state struct {
	br     *bufio.Reader
	fr     io.ReadCloser // reusable flate reader
	comp   []byte        // compressed payload scratch
	raw    []byte        // inflated payload scratch
	events []Event       // decoded current frame
	pos    int
	frames uint64
	read   int64 // bytes consumed after the magic
	valid  int64 // bytes consumed through the last verified frame/footer
}

func (s *v3state) readByte() (byte, error) {
	b, err := s.br.ReadByte()
	if err == nil {
		s.read++
	}
	return b, err
}

func (s *v3state) readFull(p []byte) error {
	n, err := io.ReadFull(s.br, p)
	s.read += int64(n)
	return err
}

// Reader decodes an event stream (v1, v2 or v3). For v2+ streams, hitting
// end of input without the footer yields ErrTruncated instead of io.EOF,
// and checksums that disagree with the bytes read yield ErrCorrupt — so a
// clean io.EOF certifies the stream complete and checksummed. Version-3
// frames are verified and decoded one at a time; ReadAll decodes them on a
// worker pool instead.
type Reader struct {
	br         *bufio.Reader
	r          *hashReader // v1/v2 record decoding
	v3         *v3state    // non-nil once a v3 header is read
	started    bool
	version    int
	count      uint64 // events decoded so far
	footerSeen bool
	dropped    uint64 // loss footer's recorded write-side drop count
	// pendingTotal carries the footer's declared event total from
	// loadFooterShallow to the parallel merge's count check.
	pendingTotal uint64
}

// NewReader returns a Reader over r. The source passes through the
// trace.read fault point, so the chaos sweep can inject read errors and
// in-flight corruption beneath the decoder.
func NewReader(r io.Reader) *Reader {
	br := bufio.NewReaderSize(faultinject.WrapReader(faultinject.TraceRead, r), 1<<16)
	return &Reader{br: br, r: &hashReader{r: br}}
}

// Version returns the stream's format version (0 before the header is read).
func (r *Reader) Version() int { return r.version }

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
	switch head[len(magic)-1] {
	case 1, 2:
		r.version = int(head[len(magic)-1])
	case 3:
		r.version = 3
		r.v3 = &v3state{br: r.br}
	default:
		return fmt.Errorf("trace: unsupported format version %d", head[len(magic)-1])
	}
	r.started = true
	return nil
}

// trunc types a mid-record read failure: on a v2+ stream an EOF inside a
// record is a truncated file (ErrTruncated), matching the end-of-stream
// case; other causes pass through.
func (r *Reader) trunc(what string, err error) error {
	if r.version >= 2 && (errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)) {
		return fmt.Errorf("%w: %s cut short", ErrTruncated, what)
	}
	return fmt.Errorf("trace: truncated %s: %w", what, err)
}

// Next returns the next event, or io.EOF at a verified end of stream.
func (r *Reader) Next() (Event, error) {
	if !r.started {
		if err := r.readHeader(); err != nil {
			return Event{}, err
		}
	}
	if r.footerSeen {
		return Event{}, io.EOF
	}
	if r.version >= 3 {
		return r.nextV3()
	}
	return r.nextV1V2()
}

func (r *Reader) nextV1V2() (Event, error) {
	// Snapshot the digest before this record: the footer's checksum covers
	// everything up to (not including) the footer itself.
	preCRC := r.r.crc
	kb, err := r.r.ReadByte()
	if err != nil {
		if errors.Is(err, io.EOF) {
			if r.version >= 2 {
				return Event{}, ErrTruncated
			}
			return Event{}, io.EOF
		}
		return Event{}, err
	}
	if r.version >= 2 && kb == footerByte {
		wantCount, err := binary.ReadUvarint(r.r)
		if err != nil {
			return Event{}, fmt.Errorf("%w: footer cut short", ErrTruncated)
		}
		wantCRC, err := binary.ReadUvarint(r.r)
		if err != nil {
			return Event{}, fmt.Errorf("%w: footer cut short", ErrTruncated)
		}
		if wantCount != r.count || uint32(wantCRC) != preCRC {
			return Event{}, fmt.Errorf("%w: footer says %d events crc %#x, stream has %d events crc %#x",
				ErrCorrupt, wantCount, uint32(wantCRC), r.count, preCRC)
		}
		r.footerSeen = true
		return Event{}, io.EOF
	}
	var e Event
	e.Kind = Kind(kb)
	fields := [7]uint64{}
	for i := range fields {
		v, err := binary.ReadUvarint(r.r)
		if err != nil {
			return Event{}, r.trunc("event", err)
		}
		fields[i] = v
	}
	e.Ctx = unzigzag(fields[0])
	e.Call = fields[1]
	e.SrcCtx = unzigzag(fields[2])
	e.SrcCall = fields[3]
	e.Bytes = fields[4]
	e.Ops = fields[5]
	e.Time = fields[6]
	nameLen, err := binary.ReadUvarint(r.r)
	if err != nil {
		return Event{}, r.trunc("event", err)
	}
	if nameLen > 0 {
		if nameLen > maxNameLen {
			return Event{}, fmt.Errorf("trace: implausible name length %d", nameLen)
		}
		name := make([]byte, nameLen)
		if err := r.r.readFull(name); err != nil {
			return Event{}, r.trunc("name", err)
		}
		e.Name = string(name)
	}
	r.count++
	return e, nil
}

func (r *Reader) nextV3() (Event, error) {
	s := r.v3
	for s.pos >= len(s.events) {
		if err := r.loadFrame(); err != nil {
			return Event{}, err
		}
		if r.footerSeen {
			return Event{}, io.EOF
		}
	}
	e := s.events[s.pos]
	s.pos++
	r.count++
	return e, nil
}

// loadFrame fetches, verifies and decodes the next frame, or validates the
// footer and trailer at end of stream.
func (r *Reader) loadFrame() error {
	s := r.v3
	marker, err := s.readByte()
	if err != nil {
		if errors.Is(err, io.EOF) {
			return ErrTruncated
		}
		return err
	}
	switch marker {
	case frameByte:
		h, err := readFrameHeader(byteReaderFunc(s.readByte))
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return fmt.Errorf("%w: frame header cut short", ErrTruncated)
			}
			return err
		}
		if cap(s.comp) < h.compSize {
			s.comp = make([]byte, h.compSize)
		}
		s.comp = s.comp[:h.compSize]
		if err := s.readFull(s.comp); err != nil {
			return fmt.Errorf("%w: frame payload cut short", ErrTruncated)
		}
		raw, fr, err := inflateFrame(h, s.comp, s.raw, s.fr)
		s.raw, s.fr = raw, fr
		if err != nil {
			return err
		}
		if s.events, err = decodePayload(s.raw, h.events, s.events[:0]); err != nil {
			return err
		}
		s.pos = 0
		s.frames++
		s.valid = s.read
		return nil
	case footerByte, footerLossByte:
		return r.loadFooter(marker == footerLossByte)
	default:
		return fmt.Errorf("%w: unknown record marker %#x", ErrCorrupt, marker)
	}
}

// footerFields is a streaming-parsed, CRC-verified footer (trailer
// included): what both the sequential and parallel paths validate their
// decode against.
type footerFields struct {
	frameCount  uint64
	indexEvents uint64 // sum of the index entries' event counts
	total       uint64
	dropped     uint64 // loss footers only
}

// readFooterFields consumes the footer body after its marker, verifies the
// body CRC and the fixed trailer, and returns the parsed fields. It
// reconstructs the body bytes as it reads so the checksum covers exactly
// what the writer signed.
func (r *Reader) readFooterFields(hasLoss bool) (footerFields, error) {
	s := r.v3
	var ff footerFields
	var body []byte
	readUvarint := func() (uint64, error) {
		v, err := binary.ReadUvarint(byteReaderFunc(s.readByte))
		if err != nil {
			return 0, fmt.Errorf("%w: footer cut short", ErrTruncated)
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
	wantCRC, err := binary.ReadUvarint(byteReaderFunc(s.readByte))
	if err != nil {
		return ff, fmt.Errorf("%w: footer cut short", ErrTruncated)
	}
	if uint32(wantCRC) != crc32.ChecksumIEEE(body) {
		return ff, fmt.Errorf("%w: footer checksum mismatch", ErrCorrupt)
	}
	var tail [trailerLen]byte
	if err := s.readFull(tail[:]); err != nil {
		return ff, fmt.Errorf("%w: trailer cut short", ErrTruncated)
	}
	if [4]byte(tail[4:8]) != trailerMagic {
		return ff, fmt.Errorf("%w: bad trailer magic", ErrCorrupt)
	}
	return ff, nil
}

// loadFooter validates the footer record and the fixed trailer against
// everything decoded so far.
func (r *Reader) loadFooter(hasLoss bool) error {
	s := r.v3
	ff, err := r.readFooterFields(hasLoss)
	if err != nil {
		return err
	}
	if ff.frameCount != s.frames || ff.total != r.count || ff.indexEvents != r.count {
		return fmt.Errorf("%w: footer says %d frames / %d events, stream has %d frames / %d events",
			ErrCorrupt, ff.frameCount, ff.total, s.frames, r.count)
	}
	r.dropped = ff.dropped
	r.footerSeen = true
	s.valid = s.read
	return nil
}

// byteReaderFunc adapts a readByte method to io.ByteReader.
type byteReaderFunc func() (byte, error)

func (f byteReaderFunc) ReadByte() (byte, error) { return f() }

// bytesConsumed reports record bytes read so far (header excluded).
func (r *Reader) bytesConsumed() int64 {
	if r.v3 != nil {
		return r.v3.read
	}
	return r.r.bytes
}

// bytesValid reports the verified prefix: for v3 that is bytes through the
// last checksummed frame (a partially read frame does not count); for
// v1/v2 every consumed byte belonged to the valid record prefix.
func (r *Reader) bytesValid() int64 {
	if r.v3 != nil {
		return r.v3.valid
	}
	return r.r.bytes
}

// ReadAll loads an entire stream, separating context definitions from the
// event sequence. Version-3 streams are decoded with one worker per CPU;
// use ReadAllWorkers to pick the pool size explicitly.
func ReadAll(r io.Reader) (*Trace, error) {
	return ReadAllWorkers(r, runtime.GOMAXPROCS(0))
}

// ReadAllWorkers loads an entire stream, decoding version-3 frames on a
// pool of `workers` goroutines with an ordered merge (workers <= 1, or a
// v1/v2 stream, decodes sequentially). When r supports seeking, the footer
// is consulted up front to preallocate the event slice.
func ReadAllWorkers(r io.Reader, workers int) (*Trace, error) {
	var pre *footerInfo
	if rs, ok := r.(io.ReadSeeker); ok {
		pre = peekFooter(rs)
	}
	rd := NewReader(r)
	if err := rd.readHeader(); err != nil {
		return nil, err
	}
	if rd.version >= 3 && workers > 1 {
		return readAllParallel(rd, workers, pre)
	}
	return readAllSequential(rd, pre)
}

func newTrace(pre *footerInfo) *Trace {
	tr := &Trace{Contexts: make(map[int32]CtxInfo)}
	if pre != nil && pre.total > 0 && pre.total <= maxFrameEvents*uint64(len(pre.frames)+1) {
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
	total  uint64 // footer's total event count
	err    error
}

// readAllParallel implements the v3 fast path: the caller's goroutine
// fetches frames in stream order (cheap, sequential I/O), a bounded worker
// pool checksums/inflates/decodes them, and the results are merged back in
// frame order. The error surfaced matches sequential semantics: the
// lowest-indexed failure wins, and footer mismatches are checked against
// the merged totals. Once the merge has copied a frame's events it hands
// the slice back to the workers through a bounded free list, so a stream
// needs about a pool's width of frame buffers instead of one per frame.
func readAllParallel(rd *Reader, workers int, pre *footerInfo) (*Trace, error) {
	s := rd.v3
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
		idx := 0
		for {
			marker, err := s.readByte()
			if err != nil {
				if errors.Is(err, io.EOF) {
					endCh <- dispatchEnd{frames: idx, err: ErrTruncated}
				} else {
					endCh <- dispatchEnd{frames: idx, err: err}
				}
				return
			}
			switch marker {
			case frameByte:
				h, err := readFrameHeader(byteReaderFunc(s.readByte))
				if err != nil {
					if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
						err = fmt.Errorf("%w: frame header cut short", ErrTruncated)
					}
					endCh <- dispatchEnd{frames: idx, err: err}
					return
				}
				comp := make([]byte, h.compSize)
				if err := s.readFull(comp); err != nil {
					endCh <- dispatchEnd{frames: idx, err: fmt.Errorf("%w: frame payload cut short", ErrTruncated)}
					return
				}
				jobs <- frameJob{idx: idx, head: h, comp: comp}
				idx++
			case footerByte, footerLossByte:
				err := rd.loadFooterShallow(uint64(idx), marker == footerLossByte)
				endCh <- dispatchEnd{frames: idx, total: rd.pendingTotal, err: err}
				return
			default:
				endCh <- dispatchEnd{frames: idx, err: fmt.Errorf("%w: unknown record marker %#x", ErrCorrupt, marker)}
				return
			}
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
	if end.total != merged {
		return nil, fmt.Errorf("%w: footer says %d events, stream decoded %d", ErrCorrupt, end.total, merged)
	}
	tr.EventsDropped = rd.dropped
	return tr, nil
}

// loadFooterShallow parses and verifies the footer without the decoded-count
// checks the sequential path performs inline; the parallel merge does those
// against pendingTotal once every frame has been merged.
func (r *Reader) loadFooterShallow(frames uint64, hasLoss bool) error {
	s := r.v3
	ff, err := r.readFooterFields(hasLoss)
	if err != nil {
		return err
	}
	if ff.frameCount != frames {
		return fmt.Errorf("%w: footer says %d frames, stream has %d", ErrCorrupt, ff.frameCount, frames)
	}
	r.footerSeen = true
	r.pendingTotal = ff.total
	r.dropped = ff.dropped
	s.valid = s.read
	return nil
}
