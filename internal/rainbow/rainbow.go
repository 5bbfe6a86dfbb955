// Package rainbow implements classic Oechslin rainbow tables over the NF
// hash functions, as used by CASTAN's havoc-reconciliation stage (§3.5):
// given a hash value a solver asked for, find preimage keys drawn from a
// (possibly tailored) key space.
//
// A table stores chains of alternating hash and position-dependent
// reduction steps; only (startSeed, endHash) pairs are kept. Lookup walks
// the suffix of each possible chain position, matches end hashes, and
// regenerates candidate chains from their start seeds.
package rainbow

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"slices"

	"castan/internal/nfhash"
	"castan/internal/parallel"
	"castan/internal/stats"
)

// Table is a built rainbow table for one (hash, key space) pair.
type Table struct {
	hash     func([]byte) uint64
	bits     int
	space    nfhash.KeySpace
	chainLen int
	seed     uint64
	// ends and starts are the chain index: parallel arrays, one entry per
	// chain, sorted by (end hash, chain number). Chains sharing an end
	// (merges) are therefore adjacent and in build order, which is the
	// order Invert offers their candidates in and Serialize writes them.
	ends   []uint64
	starts []uint64
}

// Config sizes a table.
type Config struct {
	// Bits is the hash output width; hash values are masked to it.
	Bits int
	// Chains and ChainLen size the table. Coverage ≈ Chains×ChainLen
	// relative to the 2^Bits hash space; the paper suggests a few entries
	// per value (~2^bits keys total).
	Chains   int
	ChainLen int
	// Seed drives start-seed generation.
	Seed uint64
	// Workers bounds the chain-generation fan-out (0 = GOMAXPROCS). The
	// built table is bit-for-bit identical at every worker count: chain c
	// always walks from the c-th draw of the seed's splitmix64 stream.
	Workers int
	// Corrupt is a fault-injection hook perturbing stored chain ends
	// (nil in production). A corrupted table still answers lookups — the
	// walks just dead-end — which is exactly what SelfCheck exists to
	// detect. Tables built with a Corrupt hook must never enter a shared
	// cache.
	Corrupt func(chain int, end uint64) uint64
}

// DefaultConfig covers a bits-wide space about 4×.
func DefaultConfig(bits int) Config {
	space := 1 << uint(bits)
	chainLen := 64
	chains := space * 4 / chainLen
	if chains < 16 {
		chains = 16
	}
	return Config{Bits: bits, Chains: chains, ChainLen: chainLen, Seed: 0x9a3b}
}

// buildChunk is how many consecutive chains one fan-out item walks: large
// enough that a chunk's RNG skip and scratch key are noise, small enough
// that workers stay balanced on the smallest catalog table (2048 chains).
const buildChunk = 512

// Build generates the table. The hash function is truncated to cfg.Bits.
func Build(hash func([]byte) uint64, space nfhash.KeySpace, cfg Config) (*Table, error) {
	if cfg.Bits <= 0 || cfg.Bits > 32 {
		return nil, fmt.Errorf("rainbow: unsupported hash width %d", cfg.Bits)
	}
	if cfg.Chains <= 0 || cfg.ChainLen <= 0 || uint64(cfg.Chains) > math.MaxUint32 {
		return nil, fmt.Errorf("rainbow: bad table size %d×%d", cfg.Chains, cfg.ChainLen)
	}
	t := &Table{
		hash:     nfhash.Masked(hash, cfg.Bits),
		bits:     cfg.Bits,
		space:    space,
		chainLen: cfg.ChainLen,
		seed:     cfg.Seed,
		ends:     make([]uint64, cfg.Chains),
		starts:   make([]uint64, cfg.Chains),
	}
	// Chains are independent given their start seed, and chain c's start
	// is the c-th draw of the seed's splitmix64 stream — reachable in O(1)
	// with Skip — so contiguous chunks of chains fan out across workers,
	// each with a private scratch key, writing only their own slots. No
	// structure is shared until the one sort below, so the table is
	// identical to a sequential build at every worker count. A chunk's
	// chains walk width at a time; in a short last group the spare lanes
	// walk seed 0 and their ends are dropped.
	_, width, walkGroup := t.walker(space, hash, useSIMD)
	chunks := (cfg.Chains + buildChunk - 1) / buildChunk
	parallel.ForEach(cfg.Workers, chunks, func(k int) {
		lo := k * buildChunk
		hi := min(lo+buildChunk, cfg.Chains)
		key := make([]byte, space.KeyLen())
		rng := stats.NewRNG(cfg.Seed)
		rng.Skip(uint64(lo))
		var group [maxWidth]uint64
		v := group[:width]
		for c := lo; c < hi; c += width {
			n := min(width, hi-c)
			for i := range n {
				t.starts[c+i] = rng.Uint64()
				v[i] = t.starts[c+i]
			}
			clear(v[n:])
			walkGroup(key, v)
			copy(t.ends[c:c+n], v[:n])
		}
	})
	if cfg.Corrupt != nil {
		for c, end := range t.ends {
			t.ends[c] = cfg.Corrupt(c, end)
		}
	}
	sortIndex(t.ends, t.starts)
	return t, nil
}

// isRingHash reports whether hash is nfhash.RingHash itself, by code
// address; a wrapper around it is not, and takes the generic lane path.
func isRingHash(hash func([]byte) uint64) bool {
	return reflect.ValueOf(hash).Pointer() == reflect.ValueOf(nfhash.RingHash).Pointer()
}

// sortIndex reorders the parallel per-chain arrays, given in chain
// order, by (end, chain number): a stable LSD radix sort on the end,
// 16 bits a pass, as many passes as the widest end needs. Stability
// keeps chains that share an end in chain order. Real ends are hashes
// masked to at most 32 bits (two passes); only a Corrupt hook makes
// wider ones.
func sortIndex(ends, starts []uint64) {
	const digit = 16
	if len(ends) < 2 {
		return
	}
	passes := (bits.Len64(slices.Max(ends)) + digit - 1) / digit
	if passes == 0 {
		return
	}
	src, dst := [2][]uint64{ends, starts}, [2][]uint64{make([]uint64, len(ends)), make([]uint64, len(ends))}
	count := make([]uint32, 1<<digit)
	for shift := 0; shift < passes*digit; shift += digit {
		clear(count)
		for _, e := range src[0] {
			count[uint16(e>>shift)]++
		}
		sum := uint32(0)
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for i, e := range src[0] {
			d := uint16(e >> shift)
			j := count[d]
			count[d]++
			dst[0][j], dst[1][j] = e, src[1][i]
		}
		src, dst = dst, src
	}
	if passes%2 == 1 {
		copy(ends, src[0])
		copy(starts, src[1])
	}
}

// step hashes the key derived from seed. key is the caller's scratch
// buffer, KeyLen bytes, overwritten on every call: chain walks hash out
// of one reused key so a link allocates nothing. A goroutine walking
// chains owns its key; nothing else about a Table is mutable.
func (t *Table) step(key []byte, seed uint64) uint64 {
	t.space.Fill(key, seed)
	return t.hash(key)
}

// reduce's constants: a per-position salt, step × position + offset,
// then one xorshift-multiply round.
const (
	reduceStep   uint64 = 0x9e3779b97f4a7c15
	reduceOffset uint64 = 0x632be59bd9b4e019
	reduceShift         = 27
	reduceMul    uint64 = 0x2545f4914f6cdd1d
)

// reduce maps a hash value to the next chain seed; the position salt makes
// each column a distinct reduction function (the defining rainbow trick).
func (t *Table) reduce(h uint64, pos int) uint64 {
	v := h + uint64(pos)*reduceStep + reduceOffset
	v ^= v >> reduceShift
	v *= reduceMul
	return v
}

// walk returns the end hash of the chain starting at seed start.
func (t *Table) walk(key []byte, start uint64) uint64 {
	h := t.step(key, start)
	for pos := 1; pos < t.chainLen; pos++ {
		h = t.step(key, t.reduce(h, pos-1))
	}
	return h
}

// walkLanes is walk on nfhash.Lanes chains in lock-step: each start seed
// in v is replaced by its chain's end hash, step hashing every lane. One
// chain is a sequence of dependent multiplies; stepping every lane
// through a link before the next gives the CPU independent ones to
// overlap.
func (t *Table) walkLanes(v *[nfhash.Lanes]uint64, step func(*[nfhash.Lanes]uint64)) {
	step(v)
	for pos := 1; pos < t.chainLen; pos++ {
		for i := range v {
			v[i] = t.reduce(v[i], pos-1)
		}
		step(v)
	}
}

// chainsEnding returns the index range [lo, hi) of chains whose end is h.
func (t *Table) chainsEnding(h uint64) (lo, hi int) {
	lo, _ = slices.BinarySearch(t.ends, h)
	for hi = lo; hi < len(t.ends) && t.ends[hi] == h; hi++ {
	}
	return lo, hi
}

// Chains reports how many chains the table holds.
func (t *Table) Chains() int { return len(t.ends) }

// ChainLen reports the chain length.
func (t *Table) ChainLen() int { return t.chainLen }

// Bits reports the hash width.
func (t *Table) Bits() int { return t.bits }

// SelfCheck validates table integrity by rewalking up to n chains (0 or
// negative = all): chain c's start is recomputed from the build seed, the
// chain is walked to its end, and the stored ends index must map that end
// back to the start. A corrupted or torn table fails with a description
// of the first bad chain. The walk costs n×ChainLen hash steps, so
// callers usually spot-check a sample before trusting a cached table.
func (t *Table) SelfCheck(n int) error {
	if n <= 0 || n > len(t.ends) {
		n = len(t.ends)
	}
	key := make([]byte, t.space.KeyLen())
	rng := stats.NewRNG(t.seed)
	for c := 0; c < n; c++ {
		start := rng.Uint64()
		h := t.walk(key, start)
		lo, hi := t.chainsEnding(h)
		if !slices.Contains(t.starts[lo:hi], start) {
			return fmt.Errorf("rainbow: self-check failed at chain %d: recomputed end %#x not indexed to start %#x", c, h, start)
		}
	}
	return nil
}

// Invert searches for preimage keys of hash h (masked to the table's
// width), returning up to max candidates. Returned keys all satisfy
// hash(key) == h; they may still be rejected downstream by packet
// constraints, which is why several candidates are offered.
func (t *Table) Invert(h uint64, max int) [][]byte {
	h &= uint64(1)<<uint(t.bits) - 1
	var out [][]byte
	key := make([]byte, t.space.KeyLen())
	// Try each possible position of h within a chain, from the end
	// backwards (shortest walk first).
	for pos := t.chainLen - 1; pos >= 0 && len(out) < max; pos-- {
		// Walk h from position pos to the chain end.
		cur := h
		for p := pos + 1; p < t.chainLen; p++ {
			cur = t.step(key, t.reduce(cur, p-1))
		}
		lo, hi := t.chainsEnding(cur)
		for _, seed := range t.starts[lo:hi] {
			// Regenerate the chain to position pos and check for a true
			// preimage (end-hash matches can be chain-merge artifacts).
			for p := 0; p < pos; p++ {
				seed = t.reduce(t.step(key, seed), p)
			}
			if t.step(key, seed) == h {
				if out = appendDistinct(out, key); len(out) >= max {
					break
				}
			}
		}
	}
	return out
}

// appendDistinct appends a copy of the scratch key unless out has it.
func appendDistinct(out [][]byte, key []byte) [][]byte {
	for _, k := range out {
		if bytes.Equal(k, key) {
			return out
		}
	}
	return append(out, bytes.Clone(key))
}

// BruteForce searches the key space directly for up to max preimages of h
// (masked to the table's width), trying at most tries seeds. The paper
// reverses hashes with "brute-force methods augmented by the use of
// rainbow tables" (§3.5): the table answers point queries cheaply, and
// brute force supplies further distinct preimages when the table's are
// all unusable — rejected by the packet constraints, or already spent on
// other packets of a collision workload that needs many keys hashing to
// one value.
func (t *Table) BruteForce(h uint64, max, tries int, seed uint64) [][]byte {
	h &= uint64(1)<<uint(t.bits) - 1
	rng := stats.NewRNG(seed ^ 0xb207ef0c)
	var out [][]byte
	key := make([]byte, t.space.KeyLen())
	for i := 0; i < tries && len(out) < max; i++ {
		if t.step(key, rng.Uint64()) == h {
			out = appendDistinct(out, key)
		}
	}
	return out
}

// InvertOne returns a single preimage, if any.
func (t *Table) InvertOne(h uint64) ([]byte, bool) {
	ks := t.Invert(h, 1)
	if len(ks) == 0 {
		return nil, false
	}
	return ks[0], true
}

// Coverage estimates the fraction of the 2^bits hash space invertible with
// this table by sampling n random values.
func (t *Table) Coverage(n int, seed uint64) float64 {
	if n <= 0 {
		n = 256
	}
	rng := stats.NewRNG(seed)
	hit := 0
	mask := uint64(1)<<uint(t.bits) - 1
	for i := 0; i < n; i++ {
		if _, ok := t.InvertOne(rng.Uint64() & mask); ok {
			hit++
		}
	}
	return float64(hit) / float64(n)
}
