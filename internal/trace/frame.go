package trace

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
)

// Version-3 wire layout. After the 8-byte magic the stream is a sequence of
// marker-introduced records:
//
//	frame:  0xF5  uvarint(eventCount)  uvarint(rawSize)  uvarint(compSize)
//	        uvarint(crc32 of the compressed payload)  compSize payload bytes
//	footer: 0xF6  body  uvarint(crc32 of body)
//	        body = uvarint(frameCount)
//	              frameCount × { uvarint(eventCount) uvarint(frameBytes) }
//	              uvarint(totalEvents)
//	loss footer: 0xF7, as 0xF6 but body ends with one extra field,
//	        uvarint(droppedEvents) — written only by a writer that ran
//	        degraded and shed events, so the exact loss travels with the
//	        file instead of reading as a shorter run.
//	trailer: uint32-LE(footer length, marker through the crc uvarint)  "SGF3"
//
// The payload is eventCount records, each a kind byte, then uvarints for
// zigzag(Ctx), Call, zigzag(SrcCtx), SrcCall, Bytes, Ops, Time and the name
// length, then the name bytes. Call and Time are zigzag deltas against the
// previous record in the frame (both start from zero at the frame head, so
// frames decode independently).
// The fixed 8-byte trailer lets a seeking reader jump straight to the frame
// index without scanning the stream.
const (
	frameByte      = 0xF5
	footerByte     = 0xF6
	footerLossByte = 0xF7

	trailerLen = 8

	// defaultFrameEvents is the write-side batch size: large enough that
	// per-frame costs (flate reset, bulk CRC, one write) amortize to a few
	// ns per event, small enough that a crash loses at most a few
	// thousand events and decode workers get real parallelism.
	defaultFrameEvents = 4096

	// maxFrameEvents / maxFrameBytes bound what a decoder will allocate
	// for one frame, so corrupt headers cannot demand gigabytes.
	maxFrameEvents = 1 << 24
	maxFrameBytes  = 1 << 27

	// minRecordBytes is the smallest possible encoded record: a kind byte
	// plus eight single-byte uvarints. Header sanity checks use it to
	// reject event counts that could not fit the declared payload.
	minRecordBytes = 9

	// maxNameLen bounds a single record's name field.
	maxNameLen = 1 << 20

	// maxEventsPerByte bounds the event total a footer may declare for the
	// stream that carries it, before the total sizes a preallocation. The
	// bundled workloads' simsmall streams take 0.35–3.64 bytes per event.
	maxEventsPerByte = 64
)

var trailerMagic = [4]byte{'S', 'G', 'F', '3'}

// frameEntry is one frame's line in the footer index: how many events it
// holds and how many stream bytes it spans (marker through payload).
type frameEntry struct {
	events uint64
	bytes  uint64
}

// appendPayload delta-encodes events into dst (the uncompressed frame
// payload) and returns the extended slice.
func appendPayload(dst []byte, events []Event) []byte {
	var prevCall, prevTime uint64
	for i := range events {
		e := &events[i]
		dst = append(dst, byte(e.Kind))
		dst = binary.AppendUvarint(dst, zigzag(e.Ctx))
		dst = binary.AppendUvarint(dst, zigzag64(int64(e.Call-prevCall)))
		dst = binary.AppendUvarint(dst, zigzag(e.SrcCtx))
		dst = binary.AppendUvarint(dst, e.SrcCall)
		dst = binary.AppendUvarint(dst, e.Bytes)
		dst = binary.AppendUvarint(dst, e.Ops)
		dst = binary.AppendUvarint(dst, zigzag64(int64(e.Time-prevTime)))
		dst = binary.AppendUvarint(dst, uint64(len(e.Name)))
		dst = append(dst, e.Name...)
		prevCall, prevTime = e.Call, e.Time
	}
	return dst
}

// decodePayload decodes exactly count delta-encoded records from raw,
// appending them to dst. The payload must be consumed exactly; anything
// else is corruption.
func decodePayload(raw []byte, count int, dst []Event) ([]Event, error) {
	var prevCall, prevTime uint64
	pos := 0
	for i := 0; i < count; i++ {
		if pos >= len(raw) {
			return dst, fmt.Errorf("%w: frame payload holds %d of %d declared events", ErrCorrupt, i, count)
		}
		var e Event
		e.Kind = Kind(raw[pos])
		pos++
		fields := [8]uint64{}
		for f := range fields {
			// Most fields fit in one byte; only longer varints pay for
			// the general decoder.
			if pos < len(raw) && raw[pos] < 0x80 {
				fields[f] = uint64(raw[pos])
				pos++
				continue
			}
			v, n := binary.Uvarint(raw[pos:])
			if n <= 0 {
				return dst, fmt.Errorf("%w: record varint cut short", ErrCorrupt)
			}
			fields[f] = v
			pos += n
		}
		e.Ctx = unzigzag(fields[0])
		e.Call = prevCall + uint64(unzigzag64(fields[1]))
		e.SrcCtx = unzigzag(fields[2])
		e.SrcCall = fields[3]
		e.Bytes = fields[4]
		e.Ops = fields[5]
		e.Time = prevTime + uint64(unzigzag64(fields[6]))
		nameLen := fields[7]
		if nameLen > maxNameLen {
			return dst, fmt.Errorf("%w: implausible name length %d", ErrCorrupt, nameLen)
		}
		if uint64(len(raw)-pos) < nameLen {
			return dst, fmt.Errorf("%w: name cut short", ErrCorrupt)
		}
		if nameLen > 0 {
			e.Name = string(raw[pos : pos+int(nameLen)])
			pos += int(nameLen)
		}
		prevCall, prevTime = e.Call, e.Time
		dst = append(dst, e)
	}
	if pos != len(raw) {
		return dst, fmt.Errorf("%w: %d trailing payload bytes after %d events", ErrCorrupt, len(raw)-pos, count)
	}
	return dst, nil
}

// frameEncoder turns event batches into on-wire frames, reusing its raw
// and compressed scratch buffers and its flate state across frames.
// Payloads compress at flate.BestSpeed: after delta encoding they are so
// repetitive that higher levels buy little size for much more encoder CPU.
type frameEncoder struct {
	raw  []byte
	comp bytes.Buffer
	head []byte
	fw   *flate.Writer
}

// encoderPool recycles frame encoders across writer lifetimes. The flate
// compressor behind one encoder holds several hundred KiB of window and
// dictionary state, and short-lived writers (one per profiled run, one per
// chaos iteration) otherwise re-allocate all of it per stream.
var encoderPool sync.Pool

// getFrameEncoder returns a pooled encoder, or a fresh one when the pool
// is empty.
func getFrameEncoder() *frameEncoder {
	if fe, ok := encoderPool.Get().(*frameEncoder); ok && fe != nil {
		return fe
	}
	// BestSpeed is a valid level, so NewWriter cannot fail.
	fw, _ := flate.NewWriter(io.Discard, flate.BestSpeed)
	return &frameEncoder{fw: fw}
}

// putFrameEncoder returns an encoder to the pool. The scratch buffers keep
// their high-water capacity — that is the point: the next stream's frames
// encode with zero buffer growth.
func putFrameEncoder(fe *frameEncoder) {
	if fe != nil {
		encoderPool.Put(fe)
	}
}

// encode produces the frame for events: the header (marker + sizes + CRC)
// and the compressed payload, both valid until the next call.
func (fe *frameEncoder) encode(events []Event) (head, payload []byte, err error) {
	fe.raw = appendPayload(fe.raw[:0], events)
	fe.comp.Reset()
	fe.fw.Reset(&fe.comp)
	if _, err := fe.fw.Write(fe.raw); err != nil {
		return nil, nil, err
	}
	if err := fe.fw.Close(); err != nil {
		return nil, nil, err
	}
	comp := fe.comp.Bytes()
	fe.head = fe.head[:0]
	fe.head = append(fe.head, frameByte)
	fe.head = binary.AppendUvarint(fe.head, uint64(len(events)))
	fe.head = binary.AppendUvarint(fe.head, uint64(len(fe.raw)))
	fe.head = binary.AppendUvarint(fe.head, uint64(len(comp)))
	fe.head = binary.AppendUvarint(fe.head, uint64(crc32.ChecksumIEEE(comp)))
	return fe.head, comp, nil
}

// frameHeader is a parsed v3 frame header.
type frameHeader struct {
	events   int
	rawSize  int
	compSize int
	crc      uint32
}

// readFrameHeader parses the varint fields after a frame marker and
// sanity-checks them against the decoder's allocation bounds.
func readFrameHeader(r io.ByteReader) (frameHeader, error) {
	var h frameHeader
	fields := [4]uint64{}
	for i := range fields {
		v, err := binary.ReadUvarint(r)
		if err != nil {
			return h, err
		}
		fields[i] = v
	}
	h.events = int(fields[0])
	h.rawSize = int(fields[1])
	h.compSize = int(fields[2])
	h.crc = uint32(fields[3])
	if fields[0] > maxFrameEvents || fields[1] > maxFrameBytes || fields[2] > maxFrameBytes {
		return h, fmt.Errorf("%w: implausible frame header (%d events, %d raw, %d compressed)",
			ErrCorrupt, fields[0], fields[1], fields[2])
	}
	if uint64(h.events)*minRecordBytes > fields[1] {
		return h, fmt.Errorf("%w: frame declares %d events in %d payload bytes",
			ErrCorrupt, h.events, h.rawSize)
	}
	return h, nil
}

// inflateFrame verifies comp against h's checksum and decompresses it into
// exactly h.rawSize bytes, reusing dst and fr (a flate.Resetter) if given.
func inflateFrame(h frameHeader, comp []byte, dst []byte, fr io.ReadCloser) ([]byte, io.ReadCloser, error) {
	if crc32.ChecksumIEEE(comp) != h.crc {
		return dst, fr, fmt.Errorf("%w: frame checksum mismatch", ErrCorrupt)
	}
	if fr == nil {
		fr = flate.NewReader(bytes.NewReader(comp))
	} else if err := fr.(flate.Resetter).Reset(bytes.NewReader(comp), nil); err != nil {
		return dst, fr, err
	}
	if cap(dst) < h.rawSize {
		dst = make([]byte, h.rawSize)
	}
	dst = dst[:h.rawSize]
	if _, err := io.ReadFull(fr, dst); err != nil {
		return dst, fr, fmt.Errorf("%w: frame payload does not inflate: %v", ErrCorrupt, err)
	}
	// The stream must end exactly at rawSize.
	var one [1]byte
	if n, _ := fr.Read(one[:]); n != 0 {
		return dst, fr, fmt.Errorf("%w: frame inflates past its declared size", ErrCorrupt)
	}
	return dst, fr, nil
}

// appendFooter renders the footer record plus the fixed trailer. A
// non-zero droppedEvents selects the loss-footer marker and appends the
// drop count, recording exactly how many accepted events never reached a
// frame (totalEvents counts only the events the frames hold).
func appendFooter(dst []byte, index []frameEntry, totalEvents, droppedEvents uint64) []byte {
	var body []byte
	body = binary.AppendUvarint(body, uint64(len(index)))
	for _, fe := range index {
		body = binary.AppendUvarint(body, fe.events)
		body = binary.AppendUvarint(body, fe.bytes)
	}
	body = binary.AppendUvarint(body, totalEvents)
	marker := byte(footerByte)
	if droppedEvents > 0 {
		marker = footerLossByte
		body = binary.AppendUvarint(body, droppedEvents)
	}

	start := len(dst)
	dst = append(dst, marker)
	dst = append(dst, body...)
	dst = binary.AppendUvarint(dst, uint64(crc32.ChecksumIEEE(body)))
	footLen := len(dst) - start
	dst = binary.LittleEndian.AppendUint32(dst, uint32(footLen))
	dst = append(dst, trailerMagic[:]...)
	return dst
}

// footerInfo is a parsed footer: the frame index, the stream's total event
// count, and (loss footers) the writer's recorded drop count, used to
// preallocate and cross-check decodes.
type footerInfo struct {
	frames  []frameEntry
	total   uint64
	dropped uint64
}

// parseFooterBody parses the footer from the byte after the 0xF6/0xF7
// marker through the trailing body CRC (i.e. the footer record minus its
// marker). hasLoss selects the loss-footer layout with its trailing
// droppedEvents field.
func parseFooterBody(data []byte, hasLoss bool) (*footerInfo, error) {
	pos := 0
	next := func() (uint64, error) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("%w: footer cut short", ErrTruncated)
		}
		pos += n
		return v, nil
	}
	n, err := next()
	if err != nil {
		return nil, err
	}
	// Each index entry takes at least two bytes, so the footer's own length
	// bounds the index it sizes.
	if n > maxFrameEvents || n > uint64(len(data)/2) {
		return nil, fmt.Errorf("%w: implausible frame count %d", ErrCorrupt, n)
	}
	info := &footerInfo{frames: make([]frameEntry, 0, n)}
	for i := uint64(0); i < n; i++ {
		ev, err := next()
		if err != nil {
			return nil, err
		}
		b, err := next()
		if err != nil {
			return nil, err
		}
		info.frames = append(info.frames, frameEntry{events: ev, bytes: b})
	}
	if info.total, err = next(); err != nil {
		return nil, err
	}
	if hasLoss {
		if info.dropped, err = next(); err != nil {
			return nil, err
		}
	}
	bodyLen := pos
	crc, err := next()
	if err != nil {
		return nil, err
	}
	if pos != len(data) {
		return nil, fmt.Errorf("%w: %d trailing footer bytes", ErrCorrupt, len(data)-pos)
	}
	if uint32(crc) != crc32.ChecksumIEEE(data[:bodyLen]) {
		return nil, fmt.Errorf("%w: footer checksum mismatch", ErrCorrupt)
	}
	return info, nil
}

// peekFooter reads the footer of a v3 stream through its fixed trailer
// without disturbing r's position. It returns nil (no error) when the
// source is not a complete v3 file, or when the footer declares more events
// than the stream's bytes and frame index could hold — callers use it only
// as a hint for preallocation, never for integrity decisions.
func peekFooter(r io.ReadSeeker) *footerInfo {
	cur, err := r.Seek(0, io.SeekCurrent)
	if err != nil {
		return nil
	}
	defer r.Seek(cur, io.SeekStart)
	end, err := r.Seek(0, io.SeekEnd)
	if err != nil || end-cur < int64(len(magic))+1+trailerLen {
		return nil
	}
	var tail [trailerLen]byte
	if _, err := r.Seek(end-trailerLen, io.SeekStart); err != nil {
		return nil
	}
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return nil
	}
	if [4]byte(tail[4:8]) != trailerMagic {
		return nil
	}
	footLen := int64(binary.LittleEndian.Uint32(tail[:4]))
	if footLen < 2 || footLen > end-cur-trailerLen {
		return nil
	}
	if _, err := r.Seek(end-trailerLen-footLen, io.SeekStart); err != nil {
		return nil
	}
	foot := make([]byte, footLen)
	if _, err := io.ReadFull(r, foot); err != nil {
		return nil
	}
	if foot[0] != footerByte && foot[0] != footerLossByte {
		return nil
	}
	info, err := parseFooterBody(foot[1:], foot[0] == footerLossByte)
	if err != nil || info.total > maxFrameEvents*uint64(len(info.frames)+1) ||
		info.total > maxEventsPerByte*uint64(end-cur) {
		return nil
	}
	return info
}
