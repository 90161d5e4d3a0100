package vm

// Memory is the machine's sparse, byte-addressable 64-bit address space.
// Pages are allocated on first touch and zero-filled, so reserving large
// regions is free. A one-entry translation cache covers the common case of
// consecutive accesses to the same page.
type Memory struct {
	pages map[uint64]*page

	lastIdx  uint64
	lastPage *page

	pagesAllocated int
}

const (
	pageBits = 16
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

type page [pageSize]byte

// NewMemory returns an empty address space.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*page), lastIdx: ^uint64(0)}
}

// PagesAllocated reports how many pages have been materialized, an
// architecture-independent proxy for the program's resident footprint.
func (m *Memory) PagesAllocated() int { return m.pagesAllocated }

func (m *Memory) pageFor(addr uint64) *page {
	idx := addr >> pageBits
	if idx == m.lastIdx {
		return m.lastPage
	}
	p := m.pages[idx]
	if p == nil {
		p = new(page)
		m.pages[idx] = p
		m.pagesAllocated++
	}
	m.lastIdx, m.lastPage = idx, p
	return p
}

// ReadBytes copies n bytes starting at addr into dst (which must be at least
// n long). Reads may cross page boundaries.
func (m *Memory) ReadBytes(addr uint64, dst []byte) {
	for len(dst) > 0 {
		p := m.pageFor(addr)
		off := addr & pageMask
		n := copy(dst, p[off:])
		dst = dst[n:]
		addr += uint64(n)
	}
}

// WriteBytes copies src into memory starting at addr.
func (m *Memory) WriteBytes(addr uint64, src []byte) {
	for len(src) > 0 {
		p := m.pageFor(addr)
		off := addr & pageMask
		n := copy(p[off:], src)
		src = src[n:]
		addr += uint64(n)
	}
}

// Load reads a little-endian unsigned integer of the given size (1, 2, 4, 8).
func (m *Memory) Load(addr uint64, size uint8) uint64 {
	if addr&pageMask <= pageSize-uint64(size) {
		p := m.pageFor(addr)
		off := addr & pageMask
		switch size {
		case 1:
			return uint64(p[off])
		case 2:
			return uint64(p[off]) | uint64(p[off+1])<<8
		case 4:
			return uint64(p[off]) | uint64(p[off+1])<<8 |
				uint64(p[off+2])<<16 | uint64(p[off+3])<<24
		default:
			return uint64(p[off]) | uint64(p[off+1])<<8 |
				uint64(p[off+2])<<16 | uint64(p[off+3])<<24 |
				uint64(p[off+4])<<32 | uint64(p[off+5])<<40 |
				uint64(p[off+6])<<48 | uint64(p[off+7])<<56
		}
	}
	// Page-straddling access: assemble byte by byte.
	var v uint64
	for i := uint8(0); i < size; i++ {
		p := m.pageFor(addr + uint64(i))
		v |= uint64(p[(addr+uint64(i))&pageMask]) << (8 * i)
	}
	return v
}

// Store writes a little-endian unsigned integer of the given size.
func (m *Memory) Store(addr uint64, size uint8, v uint64) {
	if addr&pageMask <= pageSize-uint64(size) {
		p := m.pageFor(addr)
		off := addr & pageMask
		switch size {
		case 1:
			p[off] = byte(v)
		case 2:
			p[off] = byte(v)
			p[off+1] = byte(v >> 8)
		case 4:
			p[off] = byte(v)
			p[off+1] = byte(v >> 8)
			p[off+2] = byte(v >> 16)
			p[off+3] = byte(v >> 24)
		default:
			p[off] = byte(v)
			p[off+1] = byte(v >> 8)
			p[off+2] = byte(v >> 16)
			p[off+3] = byte(v >> 24)
			p[off+4] = byte(v >> 32)
			p[off+5] = byte(v >> 40)
			p[off+6] = byte(v >> 48)
			p[off+7] = byte(v >> 56)
		}
		return
	}
	for i := uint8(0); i < size; i++ {
		p := m.pageFor(addr + uint64(i))
		p[(addr+uint64(i))&pageMask] = byte(v >> (8 * i))
	}
}
