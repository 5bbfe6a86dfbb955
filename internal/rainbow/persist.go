package rainbow

// Table serialization for the cross-run store. A table's identity is
// (hash function, key space, build config); only the derived chain data
// travels — the hash and key space are code, reattached on load. The
// caller owns integrity: a loaded table must pass SelfCheck before it is
// trusted, because these bytes may come from a torn or tampered file
// (LoadTable rejects what is structurally wrong, but well-formed yet
// wrong chain data is only detectable by rewalking chains).

import (
	"encoding/binary"
	"fmt"
	"math"

	"castan/internal/nfhash"
)

// The serialized form is a fixed header followed by the index's two
// parallel arrays, in index order (ascending end, build order within an
// end):
//
//	magic    [8]byte  "rainbow2"
//	bits     uint32
//	chainLen uint32
//	seed     uint64
//	nchains  uint64
//	ends     [nchains]uint32
//	starts   [nchains]uint64
//
// All integers are little-endian. Ends fit 32 bits because real ends are
// hashes masked to at most 32 bits.
const (
	tableMagic  = "rainbow2"
	tableHeader = len(tableMagic) + 4 + 4 + 8 + 8
	chainBytes  = 4 + 8
)

// Serialize encodes the table's chain data deterministically. A table
// whose ends are wider than its hash (only a fault-injection Corrupt hook
// makes one) has no encoding and is refused.
func (t *Table) Serialize() ([]byte, error) {
	n := len(t.ends)
	if n > 0 && t.ends[n-1]>>uint(t.bits) != 0 {
		return nil, fmt.Errorf("rainbow: end %#x wider than %d bits", t.ends[n-1], t.bits)
	}
	if uint64(t.chainLen) > math.MaxUint32 {
		return nil, fmt.Errorf("rainbow: chain length %d does not fit the format", t.chainLen)
	}
	data := make([]byte, tableHeader, tableHeader+n*chainBytes)
	copy(data, tableMagic)
	le := binary.LittleEndian
	le.PutUint32(data[8:], uint32(t.bits))
	le.PutUint32(data[12:], uint32(t.chainLen))
	le.PutUint64(data[16:], t.seed)
	le.PutUint64(data[24:], uint64(n))
	for _, end := range t.ends {
		data = le.AppendUint32(data, uint32(end))
	}
	for _, start := range t.starts {
		data = le.AppendUint64(data, start)
	}
	return data, nil
}

// LoadTable rebuilds a table from Serialize's output, reattaching the
// hash function and key space the table was built over (they are part
// of the caller's store key, so a mismatch cannot alias silently — but
// it would also be caught by SelfCheck, which callers must run before
// trusting the result). A payload is rejected unless its length matches
// its header exactly, every end fits the hash width, and the ends are
// non-decreasing: binary search over a misordered index would miss
// chains that are there.
func LoadTable(data []byte, hash func([]byte) uint64, space nfhash.KeySpace) (*Table, error) {
	if len(data) < tableHeader || string(data[:len(tableMagic)]) != tableMagic {
		return nil, fmt.Errorf("rainbow: not a serialized table")
	}
	le := binary.LittleEndian
	bits := int(le.Uint32(data[8:]))
	chainLen := int(le.Uint32(data[12:]))
	seed := le.Uint64(data[16:])
	nchains := le.Uint64(data[24:])
	if bits <= 0 || bits > 32 {
		return nil, fmt.Errorf("rainbow: unsupported hash width %d", bits)
	}
	// The length check comes before anything is sized from the header,
	// whose chain count may be any 64-bit value.
	body := len(data) - tableHeader
	if chainLen <= 0 || nchains == 0 || body%chainBytes != 0 || uint64(body/chainBytes) != nchains {
		return nil, fmt.Errorf("rainbow: bad table size %d×%d in %d bytes", nchains, chainLen, len(data))
	}
	n := int(nchains)
	rawEnds, rawStarts := data[tableHeader:tableHeader+4*n], data[tableHeader+4*n:]
	t := &Table{
		hash:     nfhash.Masked(hash, bits),
		bits:     bits,
		space:    space,
		chainLen: chainLen,
		seed:     seed,
		ends:     make([]uint64, n),
		starts:   make([]uint64, n),
	}
	for i := range t.ends {
		end := uint64(le.Uint32(rawEnds[4*i:]))
		if end>>uint(bits) != 0 {
			return nil, fmt.Errorf("rainbow: end %#x wider than %d bits", end, bits)
		}
		if i > 0 && end < t.ends[i-1] {
			return nil, fmt.Errorf("rainbow: end %#x out of order at chain %d", end, i)
		}
		t.ends[i] = end
		t.starts[i] = le.Uint64(rawStarts[8*i:])
	}
	return t, nil
}
