// Package core implements Sigil itself — the paper's primary contribution: a
// profiling methodology that tracks the producer and all consumers of every
// data byte a program generates, classifies each communicated byte as
// input/output/local and unique/non-unique, measures data re-use counts and
// lifetimes, and emits execution either as per-context aggregates or as a
// stream of dependent events.
//
// The implementation mirrors the paper's structure: a two-level shadow
// memory (this file) derived from Nethercote and Seward's technique holds a
// shadow object per data byte (or per cache line in line-granularity mode);
// the Tool (sigil.go) hooks into the Callgrind-analogue substrate to resolve
// the executing context and classify every access.
package core

// shadowObj is the baseline shadow-memory object, one per granule (byte or
// line). It matches Table I of the paper: last writer, last reader, and the
// last reader's call number (the writer's call number is kept as well; the
// event representation needs it to name the producing call).
//
// The struct is deliberately comparable: the batched classifier detects runs
// of granules in identical state with a single struct equality, so adding a
// non-comparable field here would break the hot path.
//
// Context identities are stored in an encoded form so the zero value means
// "invalid" and chunks need no initialization pass:
//
//	0              invalid (never written / never read)
//	1              the kernel side of a syscall
//	2              program startup (initial data)
//	c+3            calling-context ID c
type shadowObj struct {
	writer     uint32
	writerCall uint32
	reader     uint32
	readerCall uint32
}

// reuseObj extends a granule's shadow state in re-use mode, matching the
// "additional variables for Reuse mode" of Table I: the re-use count and the
// re-use lifetime's first and final access timestamps.
type reuseObj struct {
	count uint32
	_     uint32
	first uint64
	last  uint64
}

// Shadow-object sizes used by the memory accounting (Fig 6, telemetry
// shadow-bytes gauges). TestShadowObjSizes pins them to unsafe.Sizeof so
// they cannot silently drift when the structs change.
const (
	shadowObjBytes = 16
	reuseObjBytes  = 24
)

// Encoded pseudo-context identities.
const (
	encInvalid uint32 = 0
	encKernel  uint32 = 1
	encStartup uint32 = 2
	encBias    uint32 = 3 // real context c encodes as c+encBias
)

// encodeCtx converts a calltree context ID (always ≥ 0) into the shadow
// encoding.
func encodeCtx(ctx int32) uint32 {
	return uint32(ctx) + encBias
}

// decodeCtx turns a shadow encoding back into a context ID. Besides
// encodeCtx's real contexts it decodes the kernel's and startup's
// encodings, which syscalls and startup marking write; invalid decodes to
// CtxStartup (never-written memory is program input).
func decodeCtx(enc uint32) int32 {
	switch enc {
	case encInvalid, encStartup:
		return -1
	case encKernel:
		return -2
	default:
		return int32(enc - encBias)
	}
}

const (
	// chunkBits sets the second-level chunk size: 2^chunkBits granules.
	chunkBits     = 14
	chunkGranules = 1 << chunkBits
	chunkMask     = chunkGranules - 1
)

// The first-level lookup keeps a small direct-mapped cache of chunk
// pointers in front of the map, indexed by the low chunk-key bits. A
// single-entry cache thrashes as soon as an access pattern alternates
// between two regions (stack vs heap is enough); 64 slots absorb the
// working set of every workload in the suite while staying small enough
// to live in L1.
const (
	shadowCacheSlots = 64
	shadowCacheMask  = shadowCacheSlots - 1
)

type shadowCacheSlot struct {
	key uint64
	ch  *shadowChunk
}

// shadowChunk is one second-level structure: a block of shadow objects
// created on first touch, exactly like the paper's lazily allocated
// second-level table. The reuse extension is only allocated in re-use mode,
// which is what makes re-use monitoring cost extra memory (the paper reports
// up to 2x).
type shadowChunk struct {
	objs  []shadowObj
	reuse []reuseObj
}

// shadowBytesPerGranule reports the shadow cost per granule for memory
// accounting (Fig 6).
func shadowBytesPerGranule(reuse bool) uint64 {
	n := uint64(shadowObjBytes)
	if reuse {
		n += reuseObjBytes
	}
	return n
}

// shadowTable is the first level: a sparse map from chunk index to chunk,
// with a direct-mapped lookup cache and an optional FIFO capacity limit.
// When the limit is reached the oldest chunk is evicted through the onEvict
// callback (which flushes its open re-use episodes), trading a small,
// bounded accuracy loss for bounded memory — the paper's memory-limit
// command-line option, needed there only for dedup. An evicted chunk is
// zeroed and handed straight to the key that forced the eviction, so
// sustained eviction churn under MaxShadowChunks reuses the same buffers
// instead of hammering the allocator with chunk-sized blocks (256 KiB in
// byte mode, 640 KiB with the re-use extension), and at most max chunk
// buffers ever exist.
type shadowTable struct {
	chunks  map[uint64]*shadowChunk
	cache   [shadowCacheSlots]shadowCacheSlot
	order   []uint64 // chunk keys in creation order (FIFO); order[head:] is live
	head    int      // first live index into order
	max     int      // max live chunks; 0 = unlimited
	reuse   bool
	onEvict func(key uint64, ch *shadowChunk)
	stock   chan *shadowChunk // zeroed buffers restock made, or nil

	allocated uint64 // chunks ever created (including recycled buffers)
	evicted   uint64
	recycled  uint64 // materializations served by an evicted buffer
	stocked   uint64 // materializations served by the stock
	peakLive  int

	cacheHits   uint64
	cacheMisses uint64
}

func newShadowTable(maxChunks int, reuse bool, onEvict func(uint64, *shadowChunk)) *shadowTable {
	return &shadowTable{
		chunks:  make(map[uint64]*shadowChunk),
		max:     maxChunks,
		reuse:   reuse,
		onEvict: onEvict,
	}
}

// get returns the chunk and intra-chunk index for granule g, materializing
// the chunk on first touch.
func (t *shadowTable) get(g uint64) (*shadowChunk, uint32) {
	key := g >> chunkBits
	slot := &t.cache[key&shadowCacheMask]
	if slot.ch != nil && slot.key == key {
		t.cacheHits++
		return slot.ch, uint32(g & chunkMask)
	}
	t.cacheMisses++
	ch := t.chunks[key]
	if ch == nil {
		if t.max > 0 && len(t.chunks) >= t.max {
			ch = t.evictOldest()
		}
		if ch != nil {
			t.recycled++
		} else {
			ch = t.newChunk()
		}
		t.chunks[key] = ch
		t.order = append(t.order, key)
		t.allocated++
		if live := len(t.chunks); live > t.peakLive {
			t.peakLive = live
		}
		// Eviction may have cleared this slot; reload it either way.
		slot = &t.cache[key&shadowCacheMask]
	}
	slot.key, slot.ch = key, ch
	return ch, uint32(g & chunkMask)
}

// newChunk returns a zeroed chunk buffer: the stocked one, when the
// interpreter left one while it waited for the classification worker
// (worker.go), or a new one. Either way the buffer is the same, so nothing
// the run reports shows which goroutine cleared it.
func (t *shadowTable) newChunk() *shadowChunk {
	select {
	case ch := <-t.stock:
		t.stocked++
		return ch
	default:
		return makeChunk(t.reuse)
	}
}

// restock puts a zeroed chunk buffer in the stock when the stock is empty.
// It runs on the interpreter goroutine while the classification worker owns
// the rest of the table, so it reads only the stock and the mode, which do
// not change while the worker runs; nothing else sends to the stock, so the
// send never blocks.
func (t *shadowTable) restock() {
	if t.stock != nil && len(t.stock) == 0 {
		t.stock <- makeChunk(t.reuse)
	}
}

// makeChunk allocates a zeroed chunk buffer, with the re-use extension when
// reuse is set.
func makeChunk(reuse bool) *shadowChunk {
	ch := &shadowChunk{objs: make([]shadowObj, chunkGranules)}
	if reuse {
		ch.reuse = make([]reuseObj, chunkGranules)
	}
	return ch
}

// evictOldest drops the oldest live chunk and returns its buffer, zeroed
// for reuse, or nil when no chunk is live.
func (t *shadowTable) evictOldest() *shadowChunk {
	for t.head < len(t.order) {
		key := t.order[t.head]
		t.head++
		t.compactOrder()
		ch, ok := t.chunks[key]
		if !ok {
			continue // already evicted
		}
		if t.onEvict != nil {
			t.onEvict(key, ch)
		}
		delete(t.chunks, key)
		if slot := &t.cache[key&shadowCacheMask]; slot.ch == ch {
			slot.key, slot.ch = 0, nil
		}
		clear(ch.objs)
		if ch.reuse != nil {
			clear(ch.reuse)
		}
		t.evicted++
		return ch
	}
	t.order = t.order[:0]
	t.head = 0
	return nil
}

// compactOrder bounds the FIFO bookkeeping: re-slicing order on every
// eviction would pin the full backing array and let consumed keys
// accumulate forever under a chunk limit, so once the consumed prefix
// reaches half the slice (and is large enough to be worth the copy) the
// live tail shifts to the front and the slice truncates in place.
func (t *shadowTable) compactOrder() {
	if t.head >= 32 && t.head*2 >= len(t.order) {
		n := copy(t.order, t.order[t.head:])
		t.order = t.order[:n]
		t.head = 0
	}
}

// forEach visits every live chunk (used for end-of-run flushing).
func (t *shadowTable) forEach(fn func(key uint64, ch *shadowChunk)) {
	for key, ch := range t.chunks {
		fn(key, ch)
	}
}

// ShadowStats describes the shadow memory's footprint for the paper's
// memory-usage characterization (Fig 6).
type ShadowStats struct {
	ChunksAllocated uint64 // chunks ever materialized
	ChunksLive      uint64 // chunks resident at end of run
	ChunksEvicted   uint64 // chunks dropped by the FIFO limit
	PeakLiveChunks  uint64
	BytesPerChunk   uint64
	PeakBytes       uint64 // peak shadow footprint
	GranuleBytes    uint64 // data bytes covered per granule (1 or line size)
}

// bytesPerChunk reports the shadow cost of one resident chunk, shared by
// end-of-run stats and the live telemetry sampler.
func (t *shadowTable) bytesPerChunk() uint64 {
	return uint64(chunkGranules) * shadowBytesPerGranule(t.reuse)
}

func (t *shadowTable) stats(granuleBytes uint64) ShadowStats {
	perChunk := t.bytesPerChunk()
	return ShadowStats{
		ChunksAllocated: t.allocated,
		ChunksLive:      uint64(len(t.chunks)),
		ChunksEvicted:   t.evicted,
		PeakLiveChunks:  uint64(t.peakLive),
		BytesPerChunk:   perChunk,
		PeakBytes:       uint64(t.peakLive) * perChunk,
		GranuleBytes:    granuleBytes,
	}
}
