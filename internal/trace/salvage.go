package trace

import (
	"errors"
	"fmt"
	"io"
	"runtime"

	"sigil/internal/faultinject"
	"sigil/internal/safeio"
	"sigil/internal/tracing"
)

// QuarantinedFrame records one corrupt mid-stream frame the salvage scan
// skipped: its position in the stream and the exact byte range it spans in
// the file, so forensics can extract the damaged bytes.
type QuarantinedFrame struct {
	Index  int    `json:"index"`  // frame position in the stream (0-based, good frames counted)
	Start  int64  `json:"start"`  // file offset of the frame marker byte
	End    int64  `json:"end"`    // file offset one past the frame's last payload byte
	Events uint64 `json:"events"` // the frame header's declared event count
	Err    error  `json:"-"`      // what failed: checksum, inflate, or decode
}

// SalvageReport describes what a Salvage pass recovered from a (possibly
// truncated or corrupt) event file. Mid-stream corruption and truncation
// are reported separately: a quarantined frame is a bounded hole with the
// stream intact on both sides, while Truncated means the stream's tail
// (and footer) is gone. It is the run report's "salvage" section.
type SalvageReport struct {
	Events     int   `json:"events"`      // records recovered (context definitions included)
	Contexts   int   `json:"contexts"`    // context definitions among them
	BytesValid int64 `json:"bytes_valid"` // bytes of verified, decoded records (header excluded)
	BytesTotal int64 `json:"bytes_total"` // total record bytes present in the input
	Complete   bool  `json:"complete"`    // footer verified, nothing quarantined, no recorded drops
	Err        error `json:"-"`           // the decode error that ended the scan early (nil otherwise)

	// FramesQuarantined counts corrupt v3 frames skipped mid-stream; each
	// has an entry in Quarantined. BytesQuarantined is their combined size.
	FramesQuarantined int                `json:"frames_quarantined"`
	Quarantined       []QuarantinedFrame `json:"quarantined,omitempty"`
	BytesQuarantined  int64              `json:"bytes_quarantined"`
	// Truncated reports that the stream ended before its footer — the
	// crash/cut case — as opposed to mid-stream damage with an intact tail.
	Truncated bool `json:"truncated"`
	// EventsDropped is the write-side loss recorded in the stream's loss
	// footer (a degraded writer shedding events), distinct from read-side
	// quarantine loss.
	EventsDropped uint64 `json:"events_dropped"`
}

// EstimatedTotal extrapolates how many events the intact file likely held,
// from the valid prefix's mean event size. For a complete file it is exact.
func (r SalvageReport) EstimatedTotal() int {
	if r.Complete || r.Events == 0 || r.BytesValid == 0 {
		return r.Events
	}
	return int(float64(r.Events) * float64(r.BytesTotal) / float64(r.BytesValid))
}

// String renders the paper-trail summary, e.g. "recovered 812 of ~1024
// events (truncated after 12640 of 15980 bytes)".
func (r SalvageReport) String() string {
	quar := ""
	if r.FramesQuarantined > 0 {
		quar = fmt.Sprintf(", %d corrupt frame(s) quarantined (%d bytes)",
			r.FramesQuarantined, r.BytesQuarantined)
	}
	loss := ""
	if r.EventsDropped > 0 {
		loss = fmt.Sprintf(", writer recorded %d dropped event(s)", r.EventsDropped)
	}
	if r.Complete {
		return fmt.Sprintf("recovered all %d events (footer verified)%s", r.Events, loss)
	}
	if !r.Truncated && r.Err == nil {
		return fmt.Sprintf("recovered %d events (footer verified)%s%s", r.Events, quar, loss)
	}
	if r.BytesTotal > r.BytesValid+r.BytesQuarantined {
		return fmt.Sprintf("recovered %d of ~%d events (truncated after %d of %d bytes)%s%s",
			r.Events, r.EstimatedTotal(), r.BytesValid, r.BytesTotal, quar, loss)
	}
	// Truncated exactly at end of input: every byte present parsed, so
	// there is no tail to extrapolate the original length from.
	return fmt.Sprintf("recovered %d of ~%d events (stream cut short after %d bytes)%s%s",
		r.Events, r.EstimatedTotal(), r.BytesValid, quar, loss)
}

// Salvage reads what it can of an event stream instead of propagating the
// first decode failure: crashed profiling runs leave truncated event files,
// damaged media leaves corrupt ones, and the data around the fault is still
// good. It returns the recovered Trace and a report saying precisely how
// much of the stream survived. Recovery is frame-granular and
// quarantine-and-continue: each frame's payload is fully read before it is
// verified, so a mid-stream frame whose checksum, inflation or decode fails
// leaves the scan aligned on the next record marker. The frame is skipped —
// its position, exact byte range and declared event count recorded in the
// report — so one damaged frame costs only its own events. The scan stops
// early only when it loses framing (a header it cannot parse, an unknown
// marker), because past that point byte offsets mean nothing, or when the
// input ends or fails. Truncation (the stream ends before its footer) is
// reported distinctly via Truncated. Only an unreadable header (not an
// event file at all) returns an error. Frames decode on one worker per CPU,
// as in ReadAll.
func Salvage(r io.Reader) (*Trace, *SalvageReport, error) {
	tr := newTrace(r)
	rd := NewReader(r)
	if err := rd.readHeader(); err != nil {
		return nil, nil, err
	}
	rep := &SalvageReport{}
	frames, framesEnd := 0, int64(0)
	foot, err := rd.decodeFrames(runtime.GOMAXPROCS(0), func(f *frame) error {
		idx := frames
		frames, framesEnd = frames+1, f.end
		if f.err != nil {
			// The payload was fully read, so the scan is still aligned:
			// quarantine this frame and continue at the next marker.
			rep.FramesQuarantined++
			rep.Quarantined = append(rep.Quarantined, QuarantinedFrame{
				Index:  idx,
				Start:  int64(len(magic)) + f.start,
				End:    int64(len(magic)) + f.end,
				Events: uint64(f.h.events),
				Err:    f.err,
			})
			rep.BytesQuarantined += f.end - f.start
			tracing.Flight().Record(tracing.KindQuarantine, "trace.salvage",
				uint64(idx), uint64(f.end-f.start))
			return nil
		}
		rep.Events += len(f.events)
		for _, e := range f.events {
			if e.Kind == KindDefCtx {
				rep.Contexts++
			}
		}
		tr.add(f.events)
		rep.BytesValid += f.end - f.start
		return nil
	})
	if foot != nil {
		rep.EventsDropped = foot.dropped
	}
	if err != nil {
		// The recovered events stand, but the stream is uncertified. A
		// footer that checksummed correctly but disagrees with the stream
		// (e.g. a quarantined frame's header lied about its event count)
		// ends the scan this way too.
		rep.Err = err
		rep.Truncated = errors.Is(err, ErrTruncated)
	} else {
		rep.BytesValid += rd.read - framesEnd
		// Write-side drops count as loss too: a loss-footer stream is
		// well-formed but not the run's complete event sequence.
		rep.Complete = rep.FramesQuarantined == 0 && foot.dropped == 0
	}
	rep.BytesTotal = rd.read + drain(rd.br)
	return tr, rep, nil
}

// PruneDanglingCalls makes a gap-containing trace structurally consistent
// for analyzers that require every referenced call to exist: when salvage
// quarantines a mid-stream frame, the events inside it vanish, so the
// surviving stream can hold Ops/Comm records for calls whose Enter was in
// the hole, and Leave records whose matching Enter (or whose proper
// nesting) was lost. This pass drops exactly those records — an Ops or
// Comm naming a call never entered, and a Leave that does not match the
// innermost open call — leaving a stream with the same shape as a cleanly
// truncated one (balanced except for calls still open at the end, which
// analyzers already tolerate). It returns how many events were removed;
// zero means the trace was already consistent and untouched.
func (t *Trace) PruneDanglingCalls() int {
	entered := make(map[uint64]bool)
	var stack []uint64
	removed := 0
	kept := t.Events[:0]
	for _, e := range t.Events {
		switch e.Kind {
		case KindEnter:
			entered[e.Call] = true
			stack = append(stack, e.Call)
		case KindLeave:
			if len(stack) == 0 || stack[len(stack)-1] != e.Call {
				removed++
				continue
			}
			stack = stack[:len(stack)-1]
		case KindOps, KindComm:
			if !entered[e.Call] {
				removed++
				continue
			}
			// A Comm whose producer call was lost keeps its consumer-side
			// accounting; analyzers treat an unknown source as "no chain
			// dependency", same as the synthetic @startup producer.
		}
		kept = append(kept, e)
	}
	t.Events = kept
	return removed
}

// drain counts the bytes left unread after the scan stopped.
func drain(r io.Reader) int64 {
	n, _ := io.Copy(io.Discard, r)
	return n
}

// FileSink streams events to a temporary file next to path and renames it
// into place only on Commit, after the footer is written and the file
// synced — so path either does not exist or holds a complete,
// footer-verified event file, never a truncated one. A path that names a
// device or a named pipe is written in place instead (safeio.Create).
type FileSink struct {
	w    *Writer
	f    *safeio.File
	done bool
}

// sinkPoints are the fault points of the event file's own pipeline.
var sinkPoints = safeio.Points{
	Create: faultinject.SinkCreate,
	Sync:   faultinject.SinkSync,
	Close:  faultinject.SinkClose,
	Rename: faultinject.SinkRename,
}

// CreateFile opens a FileSink writing the event file that will appear at
// path on Commit.
func CreateFile(path string) (*FileSink, error) {
	return CreateFileOptions(path, WriterOptions{})
}

// CreateFileOptions opens a FileSink with explicit writer options — frame
// size, retry schedule, degraded mode.
func CreateFileOptions(path string, opts WriterOptions) (*FileSink, error) {
	f, err := safeio.Create(path, sinkPoints)
	if err != nil {
		return nil, err
	}
	return &FileSink{w: NewWriterOptions(f, opts), f: f}, nil
}

// Emit implements Sink.
func (s *FileSink) Emit(e Event) error { return s.w.Emit(e) }

// Stats exposes the underlying async writer's pipeline counters (frames,
// queue depth, stalls, compressed bytes) for telemetry sampling.
func (s *FileSink) Stats() WriterStats { return s.w.Stats() }

// Commit finalizes the stream (footer, flush, fsync) and atomically renames
// it to the target path; a device or named pipe written in place is closed.
// Each finalization step is a named fault point (trace.sink.sync,
// trace.sink.close, trace.sink.rename); a failure at any of them discards
// the temporary file and leaves path untouched.
func (s *FileSink) Commit() error {
	if s.done {
		return nil
	}
	s.done = true
	if err := s.w.Close(); err != nil {
		s.f.Abort()
		return err
	}
	return s.f.Commit()
}

// Abort discards the temporary file, leaving the target path untouched;
// bytes already written to a device or named pipe stay written.
func (s *FileSink) Abort() {
	if s.done {
		return
	}
	s.done = true
	// Close first: it stops the writer's background encoder goroutine,
	// which would otherwise leak (its output is discarded with the file).
	_ = s.w.Close()
	s.f.Abort()
}
