package core

import (
	"encoding/binary"
	"reflect"
	"testing"

	"sigil/internal/callgrind"
	"sigil/internal/dbi"
	"sigil/internal/trace"
	"sigil/internal/vm"
	"sigil/internal/workloads"
)

// refTool is an independent reference implementation of the classification
// semantics of DESIGN §4 in every mode: a plain map from granule to shadow
// state, its own chunk FIFO, call stack and event segments, and none of the
// classifier's shadow table, batching, context encoding or frame mirror. It
// wraps the real Tool, which sees every callback first and drives the
// substrate, and reads the executing context and time from the substrate;
// comparing the two outputs is a differential test of the whole
// classification engine.
type refTool struct {
	vm.Observer // the real Tool, which sees every callback first
	sub         *callgrind.Tool

	granule   uint64 // data bytes per granule: 1, or the line size in line mode
	reuse     bool   // re-use mode: per-context re-use episodes
	lineMode  bool   // line mode: per-line access counts
	maxChunks int    // FIFO limit on live chunks (0 = unlimited)

	chunks map[uint64]map[uint64]*refObj // chunk key → granule → state
	fifo   []uint64                      // live chunk keys, oldest first
	shadow ShadowStats                   // chunks allocated, evicted, peak and live

	stack []refFrame // open calls, innermost last

	comm   map[int32]*CommStats
	edges  map[[2]int32]*Edge
	reuses map[int32]*ReuseStats
	lines  LineReport
	events []trace.Event // KindComm events in emission order

	startupOut, kernelOut, kernelIn uint64
}

type refObj struct {
	writer     int32 // context id; trace.CtxStartup / trace.CtxKernel for synthetic
	writerCall uint64
	hasWriter  bool
	reader     int32
	readerCall uint64
	hasReader  bool

	// count is the open episode's re-reads in re-use mode, and the
	// accesses since the chunk was materialized in line mode; first and
	// last time the open episode.
	count       uint64
	first, last uint64
}

// refFrame is one open call and its open segment's unique input per
// producing (context, call), in first-seen order.
type refFrame struct {
	ctx  int32
	call uint64
	comm []trace.Event
}

func newRefTool(real *Tool) *refTool {
	r := &refTool{
		Observer:  real,
		sub:       real.sub,
		granule:   1,
		reuse:     real.opts.TrackReuse,
		lineMode:  real.opts.LineGranularity,
		maxChunks: real.opts.MaxShadowChunks,
		chunks:    map[uint64]map[uint64]*refObj{},
		comm:      map[int32]*CommStats{},
		edges:     map[[2]int32]*Edge{},
		reuses:    map[int32]*ReuseStats{},
	}
	if r.lineMode {
		r.granule = uint64(real.opts.LineSize)
		r.lines.LineSize = real.opts.LineSize
	}
	return r
}

// each calls fn on every granule the n > 0 bytes at addr cover, in address
// order, and returns how many there were. Bytes that wrap past 2^64
// continue at address 0, as the machine's memory does.
func (r *refTool) each(addr, n uint64, fn func(g uint64)) uint64 {
	last := addr + n - 1
	if last < addr {
		return r.each(addr, -addr, fn) + r.each(0, last+1, fn)
	}
	var units uint64
	for g := addr / r.granule; ; g++ {
		fn(g)
		units++
		if g == last/r.granule {
			return units
		}
	}
}

// obj returns the state of granule g. The first touch of a chunk
// materializes it, evicting the oldest live chunk at the limit.
func (r *refTool) obj(g uint64) *refObj {
	key := g / chunkGranules
	ch := r.chunks[key]
	if ch == nil {
		if r.maxChunks > 0 && len(r.chunks) >= r.maxChunks {
			r.flush(r.chunks[r.fifo[0]])
			delete(r.chunks, r.fifo[0])
			r.fifo = r.fifo[1:]
			r.shadow.ChunksEvicted++
		}
		ch = map[uint64]*refObj{}
		r.chunks[key] = ch
		r.fifo = append(r.fifo, key)
		r.shadow.ChunksAllocated++
		r.shadow.PeakLiveChunks = max(r.shadow.PeakLiveChunks, uint64(len(r.chunks)))
	}
	o := ch[g]
	if o == nil {
		o = &refObj{}
		ch[g] = o
	}
	return o
}

// flush closes what a chunk's granules leave open when the chunk is
// evicted or the program ends: each touched line joins the line report,
// each open re-use episode its reader's histograms.
func (r *refTool) flush(ch map[uint64]*refObj) {
	for _, o := range ch {
		switch {
		case r.lineMode && o.count > 0:
			r.lines.record(o.count - 1)
		case r.reuse && o.hasReader:
			r.reuseOf(o.reader).recordEpisode(uint32(o.count), o.last-o.first)
		}
	}
}

func (r *refTool) commOf(ctx int32) *CommStats {
	c := r.comm[ctx]
	if c == nil {
		c = &CommStats{}
		r.comm[ctx] = c
	}
	return c
}

func (r *refTool) reuseOf(ctx int32) *ReuseStats {
	s := r.reuses[ctx]
	if s == nil {
		s = &ReuseStats{}
		r.reuses[ctx] = s
	}
	return s
}

func (r *refTool) edge(src, dst int32) *Edge {
	k := [2]int32{src, dst}
	e := r.edges[k]
	if e == nil {
		e = &Edge{Src: src, Dst: dst}
		r.edges[k] = e
	}
	return e
}

// tally counts one granule as unique or non-unique.
func tally(unique bool, u, nu *uint64) {
	if unique {
		*u++
	} else {
		*nu++
	}
}

// top is the innermost open call, nil outside any call.
func (r *refTool) top() *refFrame {
	if len(r.stack) == 0 {
		return nil
	}
	return &r.stack[len(r.stack)-1]
}

// closeSegment ends the innermost call's open segment: its unique input
// per producing (context, call) becomes KindComm events at the current
// time.
func (r *refTool) closeSegment() {
	f := r.top()
	if f == nil {
		return
	}
	for _, e := range f.comm {
		e.Time = r.sub.Now()
		r.events = append(r.events, e)
	}
	f.comm = f.comm[:0]
}

func (r *refTool) read(g uint64, f *refFrame, now uint64) {
	o := r.obj(g)
	producer, producerCall := int32(trace.CtxStartup), uint64(0)
	if o.hasWriter {
		producer, producerCall = o.writer, o.writerCall
	}
	// Uniqueness is keyed on the reading context alone; the call only
	// delimits re-use episodes.
	unique := !(o.hasReader && o.reader == f.ctx)
	c := r.commOf(f.ctx)
	if producer == f.ctx {
		tally(unique, &c.LocalUnique, &c.LocalNonUnique)
	} else {
		tally(unique, &c.InputUnique, &c.InputNonUnique)
		switch {
		case producer >= 0:
			p := r.commOf(producer)
			tally(unique, &p.OutputUnique, &p.OutputNonUnique)
		case producer == trace.CtxStartup && unique:
			r.startupOut++
		case producer == trace.CtxKernel && unique:
			r.kernelOut++
		}
		e := r.edge(producer, f.ctx)
		tally(unique, &e.Unique, &e.NonUnique)
		if unique {
			r.segmentInput(f, producer, producerCall)
		}
	}
	switch {
	case r.lineMode:
		o.count++
	case !r.reuse:
	case o.hasReader && o.reader == f.ctx && o.readerCall == f.call:
		o.count++
		o.last = now
	default:
		if o.hasReader {
			r.reuseOf(o.reader).recordEpisode(uint32(o.count), o.last-o.first)
		}
		o.count, o.first, o.last = 0, now, now
	}
	o.reader, o.readerCall, o.hasReader = f.ctx, f.call, true
}

// segmentInput adds one unique input granule from (producer, call) to f's
// open segment.
func (r *refTool) segmentInput(f *refFrame, producer int32, call uint64) {
	for i := range f.comm {
		if f.comm[i].SrcCtx == producer && f.comm[i].SrcCall == call {
			f.comm[i].Bytes++
			return
		}
	}
	f.comm = append(f.comm, trace.Event{
		Kind: trace.KindComm, Ctx: f.ctx, Call: f.call, SrcCtx: producer, SrcCall: call, Bytes: 1,
	})
}

func (r *refTool) write(g uint64, producer int32, call uint64) {
	o := r.obj(g)
	o.writer, o.writerCall, o.hasWriter = producer, call, true
	if r.lineMode {
		o.count++
	}
}

func (r *refTool) ProgramStart(p *vm.Program, m *vm.Machine) {
	r.Observer.ProgramStart(p, m)
	for _, s := range p.Segments {
		if len(s.Data) == 0 {
			continue
		}
		// Startup data has a producer but is not an access.
		r.each(s.Addr, uint64(len(s.Data)), func(g uint64) {
			o := r.obj(g)
			o.writer, o.writerCall, o.hasWriter = trace.CtxStartup, 0, true
		})
	}
}

func (r *refTool) FnEnter(fn int) {
	r.Observer.FnEnter(fn)
	r.closeSegment()
	r.stack = append(r.stack, refFrame{ctx: int32(r.sub.Current().ID), call: r.sub.CurrentCall()})
}

func (r *refTool) FnLeave(fn int) {
	r.Observer.FnLeave(fn)
	if len(r.stack) > 0 {
		r.closeSegment()
		r.stack = r.stack[:len(r.stack)-1]
	}
}

func (r *refTool) MemRead(addr uint64, size uint8) {
	r.Observer.MemRead(addr, size)
	if f := r.top(); f != nil {
		now := r.sub.Now()
		r.each(addr, uint64(size), func(g uint64) { r.read(g, f, now) })
	}
}

func (r *refTool) MemWrite(addr uint64, size uint8) {
	r.Observer.MemWrite(addr, size)
	if f := r.top(); f != nil {
		r.each(addr, uint64(size), func(g uint64) { r.write(g, f.ctx, f.call) })
	}
}

func (r *refTool) Syscall(sys vm.Sys, inAddr, inLen, outAddr, outLen uint64) {
	r.Observer.Syscall(sys, inAddr, inLen, outAddr, outLen)
	if f := r.top(); f != nil && inLen > 0 {
		now := r.sub.Now()
		units := r.each(inAddr, inLen, func(g uint64) { r.read(g, f, now) })
		r.commOf(f.ctx).OutputUnique += units
		r.edge(f.ctx, trace.CtxKernel).Unique += units
		r.kernelIn += units
	}
	if outLen > 0 {
		r.each(outAddr, outLen, func(g uint64) { r.write(g, trace.CtxKernel, 0) })
	}
}

func (r *refTool) ProgramEnd() {
	r.Observer.ProgramEnd()
	for len(r.stack) > 0 {
		r.closeSegment()
		r.stack = r.stack[:len(r.stack)-1]
	}
	for _, ch := range r.chunks {
		r.flush(ch)
	}
	r.shadow.ChunksLive = uint64(len(r.chunks))
}

// refModes are the configurations the reference differential covers: the
// three paper modes, and re-use mode under a chunk limit small enough that
// FIFO eviction, its episode flushes and chunk recycling run all the time.
var refModes = []struct {
	name string
	opts Options
}{
	{"baseline", Options{}},
	{"reuse", Options{TrackReuse: true}},
	{"line", Options{LineGranularity: true}},
	{"reuse-evicting", Options{TrackReuse: true, MaxShadowChunks: 4}},
}

// TestDifferentialAgainstReference runs the real classification engine and
// the reference side by side over every registry workload in every mode,
// each with an event sink, and demands identical outputs. Under -short the
// modes past baseline run on the first three workloads only.
func TestDifferentialAgainstReference(t *testing.T) {
	for i, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			prog, input, err := workloads.Build(name, workloads.SimSmall)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range refModes {
				if testing.Short() && i >= 3 && m.name != "baseline" {
					continue
				}
				t.Run(m.name, func(t *testing.T) { diffAgainstRef(t, prog, input, m.opts) })
			}
		})
	}
}

// diffAgainstRef profiles prog under the real Tool, with opts and an event
// sink, wrapped by the reference, and demands identical per-context
// communication, edges, external totals, re-use histograms, line report,
// shadow chunk accounting and KindComm events.
func diffAgainstRef(t *testing.T, prog *vm.Program, input []byte, opts Options) *Result {
	t.Helper()
	sink := &trace.Buffer{}
	opts.Events = sink
	real := mustNew(newSubstrate(), opts)
	ref := newRefTool(real)
	if _, err := dbi.Run(prog, ref, input); err != nil {
		t.Fatal(err)
	}
	res, err := real.Result()
	if err != nil {
		t.Fatal(err)
	}

	for id := range res.Comm {
		want := CommStats{}
		if c := ref.comm[int32(id)]; c != nil {
			want = *c
		}
		if res.Comm[id] != want {
			t.Errorf("ctx %d (%s): real %+v, ref %+v",
				id, res.CtxName(int32(id)), res.Comm[id], want)
		}
	}
	for ctx := range ref.comm {
		if int(ctx) >= len(res.Comm) {
			t.Errorf("ref has comm for unknown ctx %d", ctx)
		}
	}
	gotEdges := map[[2]int32]Edge{}
	for _, e := range res.Edges {
		gotEdges[[2]int32{e.Src, e.Dst}] = e
	}
	if len(gotEdges) != len(ref.edges) {
		t.Errorf("edge count: real %d, ref %d", len(gotEdges), len(ref.edges))
	}
	for k, e := range ref.edges {
		if g, ok := gotEdges[k]; !ok || g.Unique != e.Unique || g.NonUnique != e.NonUnique {
			t.Errorf("edge %s→%s: real %+v, ref %+v",
				res.CtxName(k[0]), res.CtxName(k[1]), gotEdges[k], *e)
		}
	}
	if res.StartupBytes != ref.startupOut ||
		res.KernelOutBytes != ref.kernelOut ||
		res.KernelInBytes != ref.kernelIn {
		t.Errorf("externals: real %d/%d/%d, ref %d/%d/%d",
			res.StartupBytes, res.KernelOutBytes, res.KernelInBytes,
			ref.startupOut, ref.kernelOut, ref.kernelIn)
	}

	if opts.TrackReuse != (res.Reuse != nil) {
		t.Errorf("re-use mode %v, but Result.Reuse = %v", opts.TrackReuse, res.Reuse)
	}
	for id := range res.Reuse {
		want := ReuseStats{}
		if s := ref.reuses[int32(id)]; s != nil {
			want = *s
		}
		if !reflect.DeepEqual(res.Reuse[id], want) {
			t.Errorf("reuse ctx %d (%s): real %+v, ref %+v",
				id, res.CtxName(int32(id)), res.Reuse[id], want)
		}
	}
	for ctx := range ref.reuses {
		if int(ctx) >= len(res.Reuse) {
			t.Errorf("ref has re-use episodes for ctx %d, real has %d contexts", ctx, len(res.Reuse))
		}
	}
	switch {
	case !opts.LineGranularity && res.Lines != nil:
		t.Errorf("byte mode, but Result.Lines = %+v", *res.Lines)
	case opts.LineGranularity && (res.Lines == nil || *res.Lines != ref.lines):
		t.Errorf("line report: real %+v, ref %+v", res.Lines, ref.lines)
	}
	if got := res.Shadow; got.ChunksAllocated != ref.shadow.ChunksAllocated ||
		got.ChunksEvicted != ref.shadow.ChunksEvicted ||
		got.PeakLiveChunks != ref.shadow.PeakLiveChunks ||
		got.ChunksLive != ref.shadow.ChunksLive {
		t.Errorf("shadow chunks allocated/evicted/peak/live: real %d/%d/%d/%d, ref %d/%d/%d/%d",
			got.ChunksAllocated, got.ChunksEvicted, got.PeakLiveChunks, got.ChunksLive,
			ref.shadow.ChunksAllocated, ref.shadow.ChunksEvicted, ref.shadow.PeakLiveChunks, ref.shadow.ChunksLive)
	}

	var comm []trace.Event
	for _, e := range sink.Events {
		if e.Kind == trace.KindComm {
			comm = append(comm, e)
		}
	}
	if len(comm) != len(ref.events) {
		t.Errorf("KindComm events: real %d, ref %d", len(comm), len(ref.events))
	}
	for i := range min(len(comm), len(ref.events)) {
		if comm[i] != ref.events[i] {
			t.Errorf("KindComm event %d: real %+v, ref %+v", i, comm[i], ref.events[i])
			break // the first divergence is the useful one
		}
	}
	return res
}

// TestWrappingAccessClassified: bytes of an access that wrap past 2^64 land
// on page 0 of the machine's memory, and every one of them is classified —
// for loads, stores and both syscall ranges — in agreement with the
// reference and with the bytes the substrate counted. The pointer comes
// from the input, so vm.Verify cannot reject the program.
func TestWrappingAccessClassified(t *testing.T) {
	b := vm.NewBuilder()
	buf := b.Reserve("buf", 16)
	main := b.Func("main")
	main.MoviU(vm.R1, buf)
	main.Movi(vm.R2, 16)
	main.Sys(vm.SysRead) // the pointer, then a payload
	main.Load(vm.R4, vm.R1, 0, 8)
	main.Load(vm.R5, vm.R1, 8, 8)
	main.Call("producer")
	main.Call("consumer")
	main.Halt()
	p := b.Func("producer")
	p.Store(vm.R4, 0, vm.R5, 8)
	p.Ret()
	c := b.Func("consumer")
	c.Load(vm.R6, vm.R4, 0, 8)
	c.Mov(vm.R1, vm.R4)
	c.Movi(vm.R2, 8)
	c.Sys(vm.SysWrite)
	c.Sys(vm.SysRead) // the rest of the input, into the same bytes
	c.Load(vm.R7, vm.R4, 0, 8)
	c.Ret()
	prog := mustBuild(b)
	input := make([]byte, 24)
	binary.LittleEndian.PutUint64(input, 0xFFFF_FFFF_FFFF_FFFC)

	res := diffAgainstRef(t, prog, input, Options{})
	var counted uint64
	for _, n := range res.Profile.Nodes {
		counted += n.Self.ReadBytes + n.Self.SysIn
	}
	if got := res.TotalCommunicated().TotalRead(); got != counted || counted != 40 {
		t.Errorf("classified %d bytes, substrate counted %d, want 40", got, counted)
	}
	if e, ok := edgeBetween(res, "producer", "consumer"); !ok || e.Unique != 8 {
		t.Errorf("producer→consumer edge %+v, want 8 unique bytes", e)
	}
}
