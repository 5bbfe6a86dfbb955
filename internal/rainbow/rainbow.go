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
	"fmt"

	"castan/internal/nfhash"
	"castan/internal/parallel"
	"castan/internal/stats"
)

// Table is a built rainbow table for one (hash, key space) pair.
type Table struct {
	hash  func([]byte) uint64
	bits  int
	space nfhash.KeySpace

	chainLen int
	seed     uint64
	ends     map[uint64][]uint64 // endHash -> start seeds (collisions kept)
	nchains  int
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

// Build generates the table. The hash function is truncated to cfg.Bits.
func Build(hash func([]byte) uint64, space nfhash.KeySpace, cfg Config) (*Table, error) {
	if cfg.Bits <= 0 || cfg.Bits > 32 {
		return nil, fmt.Errorf("rainbow: unsupported hash width %d", cfg.Bits)
	}
	if cfg.Chains <= 0 || cfg.ChainLen <= 0 {
		return nil, fmt.Errorf("rainbow: bad table size %d×%d", cfg.Chains, cfg.ChainLen)
	}
	t := &Table{
		hash:     nfhash.Masked(hash, cfg.Bits),
		bits:     cfg.Bits,
		space:    space,
		chainLen: cfg.ChainLen,
		seed:     cfg.Seed,
		ends:     make(map[uint64][]uint64, cfg.Chains),
	}
	// Chains are independent given their start seed, and chain c's start
	// is the c-th draw of the seed's splitmix64 stream — reachable in O(1)
	// with Skip — so chain walks fan out across workers while the merged
	// table stays identical to a sequential build (ends map contents match
	// because slot order, not completion order, drives the merge).
	type chain struct{ start, end uint64 }
	walked := parallel.Map(cfg.Workers, cfg.Chains, func(c int) chain {
		rng := stats.NewRNG(cfg.Seed)
		rng.Skip(uint64(c))
		start := rng.Uint64()
		h := t.step(start, 0)
		for pos := 1; pos < t.chainLen; pos++ {
			h = t.step(t.reduce(h, pos-1), pos)
		}
		return chain{start: start, end: h}
	})
	for c, ch := range walked {
		end := ch.end
		if cfg.Corrupt != nil {
			end = cfg.Corrupt(c, end)
		}
		t.ends[end] = append(t.ends[end], ch.start)
		t.nchains++
	}
	return t, nil
}

// step hashes the key derived from seed at chain position pos.
func (t *Table) step(seed uint64, pos int) uint64 {
	return t.hash(t.space.FromSeed(seed))
}

// reduce maps a hash value to the next chain seed; the position salt makes
// each column a distinct reduction function (the defining rainbow trick).
func (t *Table) reduce(h uint64, pos int) uint64 {
	v := h + uint64(pos)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	v ^= v >> 27
	v *= 0x2545f4914f6cdd1d
	return v
}

// Chains reports how many chains the table holds.
func (t *Table) Chains() int { return t.nchains }

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
	if n <= 0 || n > t.nchains {
		n = t.nchains
	}
	for c := 0; c < n; c++ {
		rng := stats.NewRNG(t.seed)
		rng.Skip(uint64(c))
		start := rng.Uint64()
		h := t.step(start, 0)
		for pos := 1; pos < t.chainLen; pos++ {
			h = t.step(t.reduce(h, pos-1), pos)
		}
		found := false
		for _, s := range t.ends[h] {
			if s == start {
				found = true
				break
			}
		}
		if !found {
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
	seen := map[string]bool{}
	// Try each possible position of h within a chain, from the end
	// backwards (shortest walk first).
	for pos := t.chainLen - 1; pos >= 0 && len(out) < max; pos-- {
		// Walk h from position pos to the chain end.
		cur := h
		for p := pos + 1; p < t.chainLen; p++ {
			cur = t.step(t.reduce(cur, p-1), p)
		}
		starts, ok := t.ends[cur]
		if !ok {
			continue
		}
		for _, start := range starts {
			// Regenerate the chain to position pos and check for a true
			// preimage (end-hash matches can be chain-merge artifacts).
			seed := start
			for p := 0; p < pos; p++ {
				seed = t.reduce(t.step(seed, p), p)
			}
			key := t.space.FromSeed(seed)
			if t.hash(key) == h {
				ks := string(key)
				if !seen[ks] {
					seen[ks] = true
					out = append(out, key)
					if len(out) >= max {
						break
					}
				}
			}
		}
	}
	return out
}

// BruteForce searches the key space directly for up to max preimages of h
// (masked to the table's width), trying at most tries seeds. The paper
// reverses hashes with "brute-force methods augmented by the use of
// rainbow tables" (§3.5): the table answers point queries cheaply, and
// brute force supplies additional distinct preimages when an attack needs
// many keys hashing to one value (collision workloads).
func (t *Table) BruteForce(h uint64, max, tries int, seed uint64) [][]byte {
	h &= uint64(1)<<uint(t.bits) - 1
	rng := stats.NewRNG(seed ^ 0xb207ef0c)
	var out [][]byte
	seen := map[string]bool{}
	for i := 0; i < tries && len(out) < max; i++ {
		key := t.space.FromSeed(rng.Uint64())
		if t.hash(key) == h && !seen[string(key)] {
			seen[string(key)] = true
			out = append(out, key)
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
