package core

import (
	"encoding/binary"
	"testing"

	"sigil/internal/callgrind"
	"sigil/internal/dbi"
	"sigil/internal/trace"
	"sigil/internal/vm"
	"sigil/internal/workloads"
)

// refTool is an independent reference implementation of the classification
// semantics: a plain map from address to shadow state, none of the chunked
// table, eviction, caching or encoding machinery. Wrapping the real Tool
// (observing the same substrate, which the real Tool drives) and comparing
// aggregates is a differential test of the entire classification engine.
type refTool struct {
	vm.Observer // the real Tool, which sees every event first
	sub         *callgrind.Tool

	shadow map[uint64]*refObj
	comm   map[int32]*CommStats
	edges  map[[2]int32]*Edge

	startupOut, kernelOut, kernelIn uint64
}

type refObj struct {
	writer     int32 // context id; CtxStartup / CtxKernel for synthetic
	hasWriter  bool
	reader     int32
	hasReader  bool
	readerCall uint64
}

func newRefTool(real *Tool) *refTool {
	return &refTool{
		Observer: real,
		sub:      real.sub,
		shadow:   map[uint64]*refObj{},
		comm:     map[int32]*CommStats{},
		edges:    map[[2]int32]*Edge{},
	}
}

func (r *refTool) obj(addr uint64) *refObj {
	o := r.shadow[addr]
	if o == nil {
		o = &refObj{}
		r.shadow[addr] = o
	}
	return o
}

func (r *refTool) commOf(ctx int32) *CommStats {
	c := r.comm[ctx]
	if c == nil {
		c = &CommStats{}
		r.comm[ctx] = c
	}
	return c
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

func (r *refTool) ProgramStart(p *vm.Program, m *vm.Machine) {
	r.Observer.ProgramStart(p, m)
	for _, s := range p.Segments {
		for i := range s.Data {
			o := r.obj(s.Addr + uint64(i))
			o.writer, o.hasWriter = trace.CtxStartup, true
		}
	}
}

func (r *refTool) readByte(addr uint64, consumer int32, call uint64) {
	o := r.obj(addr)
	producer := int32(trace.CtxStartup)
	if o.hasWriter {
		producer = o.writer
	}
	unique := !(o.hasReader && o.reader == consumer)
	switch {
	case producer == consumer:
		c := r.commOf(consumer)
		if unique {
			c.LocalUnique++
		} else {
			c.LocalNonUnique++
		}
	default:
		if consumer >= 0 {
			c := r.commOf(consumer)
			if unique {
				c.InputUnique++
			} else {
				c.InputNonUnique++
			}
		} else {
			r.kernelIn++
		}
		switch {
		case producer >= 0:
			c := r.commOf(producer)
			if unique {
				c.OutputUnique++
			} else {
				c.OutputNonUnique++
			}
		case producer == trace.CtxStartup:
			if unique {
				r.startupOut++
			}
		default:
			if unique {
				r.kernelOut++
			}
		}
		e := r.edge(producer, consumer)
		if unique {
			e.Unique++
		} else {
			e.NonUnique++
		}
	}
	o.reader, o.hasReader, o.readerCall = consumer, true, call
}

func (r *refTool) writeByte(addr uint64, producer int32) {
	o := r.obj(addr)
	o.writer, o.hasWriter = producer, true
}

func (r *refTool) current() (int32, uint64) {
	n := r.sub.Current()
	if n == nil {
		return trace.CtxStartup, 0
	}
	return int32(n.ID), r.sub.CurrentCall()
}

func (r *refTool) MemRead(addr uint64, size uint8) {
	r.Observer.MemRead(addr, size)
	ctx, call := r.current()
	for i := uint64(0); i < uint64(size); i++ {
		r.readByte(addr+i, ctx, call)
	}
}

func (r *refTool) MemWrite(addr uint64, size uint8) {
	r.Observer.MemWrite(addr, size)
	ctx, _ := r.current()
	for i := uint64(0); i < uint64(size); i++ {
		r.writeByte(addr+i, ctx)
	}
}

func (r *refTool) Syscall(sys vm.Sys, inAddr, inLen, outAddr, outLen uint64) {
	r.Observer.Syscall(sys, inAddr, inLen, outAddr, outLen)
	ctx, call := r.current()
	for i := uint64(0); i < inLen; i++ {
		r.readByte(inAddr+i, ctx, call)
	}
	if inLen > 0 && ctx >= 0 {
		r.commOf(ctx).OutputUnique += inLen
		r.edge(ctx, trace.CtxKernel).Unique += inLen
		r.kernelIn += inLen
	}
	for i := uint64(0); i < outLen; i++ {
		r.writeByte(outAddr+i, trace.CtxKernel)
	}
}

// TestDifferentialAgainstReference runs the real classification engine and
// the reference side by side over real workloads and demands identical
// aggregates, edges and external totals.
func TestDifferentialAgainstReference(t *testing.T) {
	for _, name := range []string{"canneal", "vips", "dedup", "streamcluster", "bodytrack"} {
		t.Run(name, func(t *testing.T) {
			prog, input, err := workloads.Build(name, workloads.SimSmall)
			if err != nil {
				t.Fatal(err)
			}
			diffAgainstRef(t, prog, input)
		})
	}
}

// diffAgainstRef profiles prog under the real Tool wrapped by the reference
// and demands identical aggregates, edges and external totals.
func diffAgainstRef(t *testing.T, prog *vm.Program, input []byte) *Result {
	t.Helper()
	real := mustNew(newSubstrate(), Options{})
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

	res := diffAgainstRef(t, prog, input)
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
