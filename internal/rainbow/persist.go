package rainbow

// Table serialization for the cross-run store. A table's identity is
// (hash function, key space, build config); only the derived chain data
// travels — the hash and key space are code, reattached on load. The
// caller owns integrity: a loaded table must pass SelfCheck before it is
// trusted, because these bytes may come from a torn or tampered file
// (the store treats undecodable entries as misses, but decodable-yet-
// wrong chain data is only detectable by rewalking chains).

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"

	"castan/internal/nfhash"
)

// tableJSON is the serialized form: one entry per distinct end hash, in
// ascending end order, each listing its chains' start seeds in build
// order — the in-memory index, grouped.
type tableJSON struct {
	Bits     int       `json:"bits"`
	ChainLen int       `json:"chain_len"`
	Seed     uint64    `json:"seed"`
	NChains  int       `json:"nchains"`
	Ends     []endJSON `json:"ends"`
}

type endJSON struct {
	End    uint64   `json:"end"`
	Starts []uint64 `json:"starts"`
}

// Serialize encodes the table's chain data deterministically.
func (t *Table) Serialize() ([]byte, error) {
	tj := tableJSON{
		Bits:     t.bits,
		ChainLen: t.chainLen,
		Seed:     t.seed,
		NChains:  len(t.ends),
	}
	for lo, hi := 0, 0; lo < len(t.ends); lo = hi {
		for hi = lo + 1; hi < len(t.ends) && t.ends[hi] == t.ends[lo]; hi++ {
		}
		tj.Ends = append(tj.Ends, endJSON{End: t.ends[lo], Starts: t.starts[lo:hi]})
	}
	return json.Marshal(tj)
}

// LoadTable rebuilds a table from Serialize's output, reattaching the
// hash function and key space the table was built over (they are part
// of the caller's store key, so a mismatch cannot alias silently — but
// it would also be caught by SelfCheck, which callers must run before
// trusting the result). Any structurally valid payload yields a correctly
// sorted index, whatever order its entries arrive in.
func LoadTable(data []byte, hash func([]byte) uint64, space nfhash.KeySpace) (*Table, error) {
	var tj tableJSON
	if err := json.Unmarshal(data, &tj); err != nil {
		return nil, fmt.Errorf("rainbow: decode table: %w", err)
	}
	if tj.Bits <= 0 || tj.Bits > 32 {
		return nil, fmt.Errorf("rainbow: unsupported hash width %d", tj.Bits)
	}
	if tj.ChainLen <= 0 || tj.NChains <= 0 {
		return nil, fmt.Errorf("rainbow: bad table size %d×%d", tj.NChains, tj.ChainLen)
	}
	// Serialize writes entries in end order; tampered or foreign bytes
	// need not, and binary search over a misordered index would miss
	// chains that are there. Equal ends are rejected below, so the sort
	// has no ties to keep in order.
	slices.SortFunc(tj.Ends, func(a, b endJSON) int { return cmp.Compare(a.End, b.End) })
	total := 0
	for i, e := range tj.Ends {
		if len(e.Starts) == 0 {
			return nil, fmt.Errorf("rainbow: end %#x with no starts", e.End)
		}
		if i > 0 && e.End == tj.Ends[i-1].End {
			return nil, fmt.Errorf("rainbow: duplicate end %#x", e.End)
		}
		total += len(e.Starts)
	}
	if total != tj.NChains {
		return nil, fmt.Errorf("rainbow: %d chains serialized, header says %d", total, tj.NChains)
	}
	t := &Table{
		hash:     nfhash.Masked(hash, tj.Bits),
		bits:     tj.Bits,
		space:    space,
		chainLen: tj.ChainLen,
		seed:     tj.Seed,
		ends:     make([]uint64, 0, total),
		starts:   make([]uint64, 0, total),
	}
	for _, e := range tj.Ends {
		for range e.Starts {
			t.ends = append(t.ends, e.End)
		}
		t.starts = append(t.starts, e.Starts...)
	}
	return t, nil
}
