// Package trace defines Sigil's second output representation: the event
// file. Instead of per-function aggregates, a program's execution is
// recorded as a sequence of dependent events — fragments of computation
// separated by data-transfer edges — which downstream analyses (critical
// path, scheduling) consume.
//
// The on-disk format (version 3) packs events into self-contained frames
// (delta-encoded, DEFLATE-compressed, individually checksummed) and ends
// with a footer carrying a frame index, so readers can decode frames in
// parallel and recover every complete frame from a truncated file. Files
// that carry any other version byte are refused.
package trace

import (
	"errors"
	"fmt"
)

// Kind discriminates event types.
type Kind uint8

// Event kinds.
const (
	// KindDefCtx defines a calling context before first use:
	// Ctx, SrcCtx (parent, -1 for root), Name.
	KindDefCtx Kind = iota
	// KindEnter marks the beginning of a function call: Ctx, Call, Time.
	KindEnter
	// KindLeave marks the end of a function call: Ctx, Call, Time.
	KindLeave
	// KindComm is a data transfer into the currently executing segment:
	// SrcCtx/SrcCall produced Bytes consumed by Ctx/Call.
	KindComm
	// KindOps closes a computation segment of Ctx/Call that performed
	// Ops arithmetic operations.
	KindOps
	// KindSys records a syscall made by Ctx/Call: SrcCall reuses no
	// fields; Bytes holds input bytes and Ops holds output bytes.
	KindSys
)

var kindNames = [...]string{
	KindDefCtx: "defctx", KindEnter: "enter", KindLeave: "leave",
	KindComm: "comm", KindOps: "ops", KindSys: "sys",
}

// String returns the kind's mnemonic.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind%d", uint8(k))
}

// Synthetic producer contexts for data with no in-program producer.
const (
	// CtxStartup marks bytes present before execution began (the
	// program's true input data).
	CtxStartup int32 = -1
	// CtxKernel marks bytes produced or consumed by the kernel side of a
	// syscall, which instrumentation cannot see into.
	CtxKernel int32 = -2
)

// Event is one record in the stream. Field use depends on Kind; unused
// fields are zero.
type Event struct {
	Kind    Kind
	Ctx     int32  // subject context
	Call    uint64 // subject call number
	SrcCtx  int32  // producer context (KindComm) or parent (KindDefCtx)
	SrcCall uint64 // producer call number (KindComm)
	Bytes   uint64 // transferred bytes (KindComm), input bytes (KindSys)
	Ops     uint64 // operation count (KindOps), output bytes (KindSys)
	Time    uint64 // retired-instruction timestamp
	Name    string // context name (KindDefCtx), syscall name (KindSys)
}

// Sink consumes events as they are produced. Implementations must tolerate
// high event rates. After the first error a profiling run emits nothing
// more and reports the error when it ends.
//
// A run may call Emit on a goroutine other than the one that started it
// (core classifies and emits on a worker goroutine when a CPU is free), but
// from one goroutine at a time, never concurrently, and every call happens
// before the run returns. A sink needs no locking for it, and its owner may
// read it or Close it once the run has returned.
type Sink interface {
	Emit(Event) error
}

// Buffer is an in-memory Sink for analyses in the same process.
type Buffer struct {
	Events []Event
}

// Emit implements Sink.
func (b *Buffer) Emit(e Event) error {
	b.Events = append(b.Events, e)
	return nil
}

// magic identifies event files; the trailing byte is the format version.
var magic = []byte{'S', 'I', 'G', 'E', 'V', 'T', 0, 3}

// ErrTruncated reports a stream that ended without its footer: the writer
// crashed (or the file was cut) mid-stream.
var ErrTruncated = errors.New("trace: stream truncated (missing footer)")

// ErrCorrupt reports a stream whose checksums or counts do not match the
// bytes read: a damaged frame, a footer that disagrees with the stream, or
// a payload that does not decode to its declared shape.
var ErrCorrupt = errors.New("trace: checksum or count mismatch (corrupt stream)")

// zigzag maps a signed 32-bit context ID onto the small-uvarint range.
func zigzag(v int32) uint64 {
	return uint64(uint32(v<<1) ^ uint32(v>>31))
}

func unzigzag(u uint64) int32 {
	return int32(uint32(u)>>1) ^ -int32(u&1)
}

// zigzag64 maps signed deltas (timestamp/call-number differences inside a
// v3 frame) onto the small-uvarint range.
func zigzag64(v int64) uint64 {
	return uint64(v<<1) ^ uint64(v>>63)
}

func unzigzag64(u uint64) int64 {
	return int64(u>>1) ^ -int64(u&1)
}

// CtxInfo describes one context defined in a stream.
type CtxInfo struct {
	ID     int32
	Parent int32
	Name   string
}

// Trace is a fully loaded event stream.
type Trace struct {
	Contexts map[int32]CtxInfo
	Events   []Event
	// EventsDropped is the write-side loss the stream's footer declared: a
	// degraded-mode writer counted this many events it could not persist.
	// Zero for streams written without loss.
	EventsDropped uint64
}

// FromBuffer converts an in-memory Buffer into a Trace without encoding.
func FromBuffer(b *Buffer) *Trace {
	tr := &Trace{Contexts: make(map[int32]CtxInfo)}
	for _, e := range b.Events {
		if e.Kind == KindDefCtx {
			tr.Contexts[e.Ctx] = CtxInfo{ID: e.Ctx, Parent: e.SrcCtx, Name: e.Name}
			continue
		}
		tr.Events = append(tr.Events, e)
	}
	return tr
}

// CtxName returns the name of ctx, covering the synthetic producers.
func (t *Trace) CtxName(ctx int32) string {
	switch ctx {
	case CtxStartup:
		return "@startup"
	case CtxKernel:
		return "@kernel"
	}
	if info, ok := t.Contexts[ctx]; ok {
		return info.Name
	}
	return fmt.Sprintf("<ctx#%d>", ctx)
}
