// Package interp executes IR modules concretely. The testbed simulator
// (internal/testbed) drives it with instrumentation hooks to account CPU
// cycles and feed every memory access through the simulated cache
// hierarchy, the way the paper measures NFs on the DUT.
package interp

import "encoding/binary"

// pageBits selects a 4 KiB sparse-memory granule.
const pageBits = 12

const pageSize = 1 << pageBits

// Memory is a sparse byte-addressable memory with big-endian multi-byte
// accesses. Pages materialize (zeroed) on first touch, so multi-MiB lookup
// tables cost only what they actually store.
type Memory struct {
	pages map[uint64]*[pageSize]byte
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: map[uint64]*[pageSize]byte{}}
}

func (m *Memory) page(addr uint64, create bool) *[pageSize]byte {
	idx := addr >> pageBits
	p := m.pages[idx]
	if p == nil && create {
		p = new([pageSize]byte)
		m.pages[idx] = p
	}
	return p
}

// LoadByte returns the byte at addr (0 for untouched memory).
func (m *Memory) LoadByte(addr uint64) byte {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&(pageSize-1)]
}

// StoreByte stores one byte.
func (m *Memory) StoreByte(addr uint64, v byte) {
	m.page(addr, true)[addr&(pageSize-1)] = v
}

// Read returns size bytes at addr as a big-endian value. size must be
// 1, 2, 4 or 8. Reading never changes the memory (symbex shares one
// Memory between workers through Engine.Base): caches of page lookups
// belong to the reader, see Machine.
func (m *Memory) Read(addr uint64, size uint8) uint64 {
	off := addr & (pageSize - 1)
	if off+uint64(size) > pageSize {
		// The value straddles two pages.
		var buf [8]byte
		m.ReadBytes(addr, buf[:size])
		return readBE(buf[:], size)
	}
	return readAt(m.page(addr, false), off, size)
}

// readAt decodes size bytes at offset off of page p; p is nil where
// memory was never written, which reads as zero.
func readAt(p *[pageSize]byte, off uint64, size uint8) uint64 {
	if p == nil {
		var untouched [8]byte
		return readBE(untouched[:], size)
	}
	return readBE(p[off:], size)
}

// Write stores size bytes at addr from a big-endian value.
func (m *Memory) Write(addr uint64, v uint64, size uint8) {
	if off := addr & (pageSize - 1); off+uint64(size) <= pageSize {
		writeBE(m.page(addr, true)[off:], v, size)
		return
	}
	var buf [8]byte
	writeBE(buf[:], v, size)
	m.WriteBytes(addr, buf[:size])
}

// readBE decodes the first size bytes of b, in place.
func readBE(b []byte, size uint8) uint64 {
	switch size {
	case 1:
		return uint64(b[0])
	case 2:
		return uint64(binary.BigEndian.Uint16(b))
	case 4:
		return uint64(binary.BigEndian.Uint32(b))
	case 8:
		return binary.BigEndian.Uint64(b)
	}
	panic("interp: bad read size")
}

// writeBE encodes v into the first size bytes of b, in place.
func writeBE(b []byte, v uint64, size uint8) {
	switch size {
	case 1:
		b[0] = byte(v)
	case 2:
		binary.BigEndian.PutUint16(b, uint16(v))
	case 4:
		binary.BigEndian.PutUint32(b, uint32(v))
	case 8:
		binary.BigEndian.PutUint64(b, v)
	default:
		panic("interp: bad write size")
	}
}

// ReadBytes copies len(dst) bytes starting at addr into dst.
func (m *Memory) ReadBytes(addr uint64, dst []byte) {
	for len(dst) > 0 {
		off := addr & (pageSize - 1)
		n := pageSize - off
		if n > uint64(len(dst)) {
			n = uint64(len(dst))
		}
		if p := m.page(addr, false); p != nil {
			copy(dst[:n], p[off:off+n])
		} else {
			for i := range dst[:n] {
				dst[i] = 0
			}
		}
		dst = dst[n:]
		addr += n
	}
}

// WriteBytes copies src into memory starting at addr.
func (m *Memory) WriteBytes(addr uint64, src []byte) {
	for len(src) > 0 {
		off := addr & (pageSize - 1)
		n := pageSize - off
		if n > uint64(len(src)) {
			n = uint64(len(src))
		}
		copy(m.page(addr, true)[off:off+n], src[:n])
		src = src[n:]
		addr += n
	}
}

// PagesTouched reports the number of materialized 4 KiB pages, useful for
// asserting footprint in tests.
func (m *Memory) PagesTouched() int { return len(m.pages) }
