package rainbow

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"castan/internal/nf"
	"castan/internal/nfhash"
	"castan/internal/stats"
)

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nfhash.TableHash, nfhash.RawSpace{Len: 4}, Config{Bits: 0}); err == nil {
		t.Error("bits=0 accepted")
	}
	if _, err := Build(nfhash.TableHash, nfhash.RawSpace{Len: 4}, Config{Bits: 40}); err == nil {
		t.Error("bits=40 accepted")
	}
	if _, err := Build(nfhash.TableHash, nfhash.RawSpace{Len: 4}, Config{Bits: 12, Chains: 0, ChainLen: 10}); err == nil {
		t.Error("chains=0 accepted")
	}
}

func TestInvertFindsTruePreimages(t *testing.T) {
	space := nfhash.UDPFlowSpace{SrcNet: 0x0a00, DstIP: 0xc0a80101, DstPort: 80}
	cfg := DefaultConfig(14)
	tbl, err := Build(nfhash.TableHash, space, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Bits() != 14 || tbl.Chains() == 0 {
		t.Fatalf("table shape: bits=%d chains=%d", tbl.Bits(), tbl.Chains())
	}
	hash := nfhash.Masked(nfhash.TableHash, 14)
	// Invert hashes of known keys: every returned candidate must be a true
	// preimage, and most lookups should succeed.
	rng := stats.NewRNG(5)
	found := 0
	const trials = 100
	for i := 0; i < trials; i++ {
		target := hash(space.FromSeed(rng.Uint64()))
		keys := tbl.Invert(target, 3)
		if len(keys) > 0 {
			found++
		}
		for _, k := range keys {
			if hash(k) != target {
				t.Fatalf("false preimage: hash(%v) = %#x, want %#x", k, hash(k), target)
			}
			if len(k) != nfhash.FlowKeyLen || k[12] != 17 {
				t.Errorf("candidate outside tailored space: %v", k)
			}
		}
	}
	if found < trials*6/10 {
		t.Errorf("inversion succeeded only %d/%d times", found, trials)
	}
}

func TestInvertOne(t *testing.T) {
	space := nfhash.RawSpace{Len: 4}
	tbl, err := Build(nfhash.RingHash, space, DefaultConfig(12))
	if err != nil {
		t.Fatal(err)
	}
	hash := nfhash.Masked(nfhash.RingHash, 12)
	target := hash(space.FromSeed(1234))
	k, ok := tbl.InvertOne(target)
	if !ok {
		t.Skip("table missed this value; acceptable for a single probe")
	}
	if hash(k) != target {
		t.Fatalf("bad preimage")
	}
}

func TestInvertDistinctCandidates(t *testing.T) {
	space := nfhash.RawSpace{Len: 4}
	tbl, err := Build(nfhash.TableHash, space, DefaultConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	hash := nfhash.Masked(nfhash.TableHash, 10)
	target := hash(space.FromSeed(7))
	keys := tbl.Invert(target, 5)
	seen := map[string]bool{}
	for _, k := range keys {
		if seen[string(k)] {
			t.Error("duplicate candidate returned")
		}
		seen[string(k)] = true
	}
}

func TestCoverageReasonable(t *testing.T) {
	space := nfhash.UDPFlowSpace{SrcNet: 0x0a00, DstIP: 1, DstPort: 2}
	tbl, err := Build(nfhash.TableHash, space, DefaultConfig(14))
	if err != nil {
		t.Fatal(err)
	}
	cov := tbl.Coverage(200, 99)
	if cov < 0.5 {
		t.Errorf("coverage %.2f too low for a 4x table", cov)
	}
	if cov > 1 {
		t.Errorf("coverage %.2f > 1", cov)
	}
}

func TestTailoringMatters(t *testing.T) {
	// A table tailored to one destination cannot produce keys for another
	// destination: all candidates it returns carry its own pinned fields.
	spaceA := nfhash.UDPFlowSpace{SrcNet: 0x0a00, DstIP: 0x01010101, DstPort: 1}
	tbl, err := Build(nfhash.TableHash, spaceA, DefaultConfig(12))
	if err != nil {
		t.Fatal(err)
	}
	keys := tbl.Invert(0x123, 5)
	for _, k := range keys {
		if k[4] != 1 || k[5] != 1 || k[6] != 1 || k[7] != 1 {
			t.Errorf("candidate escaped the tailored space: %v", k)
		}
	}
}

// TestBuildWorkerCountInvariant asserts the determinism contract of the
// parallel build: any worker count produces the same index (same ends,
// same start seeds, same order) as the sequential one, on either ring
// walk path.
func TestBuildWorkerCountInvariant(t *testing.T) {
	space := nfhash.UDPFlowSpace{SrcNet: 0x0a00, DstIP: 0xc0a80101, DstPort: 80}
	ringPaths(t, func(t *testing.T) {
		for _, hash := range []func([]byte) uint64{nfhash.TableHash, nfhash.RingHash} {
			cfg := DefaultConfig(12)
			cfg.Workers = 1
			ref, err := Build(hash, space, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{2, 4, 8} {
				cfg.Workers = w
				tbl, err := Build(hash, space, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(tbl.ends, ref.ends) || !slices.Equal(tbl.starts, ref.starts) {
					t.Fatalf("w=%d: index differs from the sequential build", w)
				}
			}
		}
	})
}

// refTable is the algorithm this package used before the flat index,
// kept as the oracle the current one is compared against: a fresh
// FromSeed key per link, a map from end hash to start seeds filled in
// chain order, candidates offered in map-slice order.
type refTable struct {
	*Table // hash, space, sizes and reduce only; its index is unused
	ends   map[uint64][]uint64
}

func refBuild(hash func([]byte) uint64, space nfhash.KeySpace, cfg Config) *refTable {
	r := &refTable{
		Table: &Table{hash: nfhash.Masked(hash, cfg.Bits), bits: cfg.Bits, space: space, chainLen: cfg.ChainLen, seed: cfg.Seed},
		ends:  map[uint64][]uint64{},
	}
	rng := stats.NewRNG(cfg.Seed)
	for c := 0; c < cfg.Chains; c++ {
		start := rng.Uint64()
		h := r.hash(space.FromSeed(start))
		for pos := 1; pos < cfg.ChainLen; pos++ {
			h = r.hash(space.FromSeed(r.reduce(h, pos-1)))
		}
		r.ends[h] = append(r.ends[h], start)
	}
	return r
}

func (r *refTable) invert(h uint64, max int) [][]byte {
	var out [][]byte
	seen := map[string]bool{}
	for pos := r.chainLen - 1; pos >= 0 && len(out) < max; pos-- {
		cur := h
		for p := pos + 1; p < r.chainLen; p++ {
			cur = r.hash(r.space.FromSeed(r.reduce(cur, p-1)))
		}
		for _, seed := range r.ends[cur] {
			for p := 0; p < pos; p++ {
				seed = r.reduce(r.hash(r.space.FromSeed(seed)), p)
			}
			key := r.space.FromSeed(seed)
			if r.hash(key) == h && !seen[string(key)] {
				seen[string(key)] = true
				if out = append(out, key); len(out) >= max {
					break
				}
			}
		}
	}
	return out
}

func (r *refTable) serialize() []byte {
	keys := make([]uint64, 0, len(r.ends))
	for end := range r.ends {
		keys = append(keys, end)
	}
	slices.Sort(keys)
	var ends []uint32
	var starts []uint64
	for _, end := range keys {
		for _, start := range r.ends[end] {
			ends = append(ends, uint32(end))
			starts = append(starts, start)
		}
	}
	return rawTable(uint32(r.bits), uint32(r.chainLen), r.seed, uint64(len(ends)), ends, starts)
}

// TestBuildMatchesReference holds the flat-index table to the reference
// on everything a caller or a store can observe: the index itself,
// Invert's candidates and their order, and Serialize's bytes. RingHash
// over a UDP flow space builds through the ring walk — the portable one
// and, where the CPU has it, the AVX-512 one — every other pair through
// Fill and the hash, each at chain counts that leave a short last walk
// group.
func TestBuildMatchesReference(t *testing.T) {
	hashes := map[string]func([]byte) uint64{"table": nfhash.TableHash, "ring": nfhash.RingHash}
	spaces := []nfhash.KeySpace{
		nfhash.UDPFlowSpace{SrcNet: 0x0a00, DstIP: 0xc0a80101, DstPort: 80},
		// The catalog's two: the NAT's 8.8.8.8:53 and the LB's VIP:80.
		nfhash.UDPFlowSpace{SrcNet: 0x0a00, DstIP: 0x08080808, DstPort: 53},
		nfhash.UDPFlowSpace{SrcNet: 0x0a00, DstIP: nf.LBVIP, DstPort: 80},
		nfhash.RawSpace{Len: 4},
		nfhash.RawSpace{Len: 13},
	}
	// Three full build chunks and a ragged fourth (77 = 9 lane groups and
	// 5, or 2 SIMD groups and 13); fewer chains than one lane group; one
	// chunk and 4 lane groups and 3 (one short SIMD group).
	ringPaths(t, func(t *testing.T) {
		for _, chains := range []int{3*buildChunk + 77, 5, buildChunk + 4*nfhash.Lanes + 3} {
			cfg := Config{Bits: 11, Chains: chains, ChainLen: 24, Seed: 0x9a3b}
			for hname, hash := range hashes {
				for _, space := range spaces {
					ref := refBuild(hash, space, cfg)
					want := ref.serialize()
					for _, w := range []int{1, 2, 4, 8} {
						name := fmt.Sprintf("%s/%T%v/chains=%d/w=%d", hname, space, space, chains, w)
						cfg.Workers = w
						tbl, err := Build(hash, space, cfg)
						if err != nil {
							t.Fatal(err)
						}
						for lo, hi := 0, 0; lo < len(tbl.ends); lo = hi {
							_, hi = tbl.chainsEnding(tbl.ends[lo])
							if !slices.Equal(tbl.starts[lo:hi], ref.ends[tbl.ends[lo]]) {
								t.Fatalf("%s: end %#x indexes starts %x, want %x", name, tbl.ends[lo], tbl.starts[lo:hi], ref.ends[tbl.ends[lo]])
							}
						}
						if !slices.IsSorted(tbl.ends) || tbl.Chains() != cfg.Chains {
							t.Fatalf("%s: index unsorted or %d chains, want %d", name, tbl.Chains(), cfg.Chains)
						}
						rng := stats.NewRNG(11)
						for i := 0; i < 200; i++ {
							h := rng.Uint64() & (1<<uint(cfg.Bits) - 1)
							got, exp := tbl.Invert(h, 16), ref.invert(h, 16)
							if !slices.EqualFunc(got, exp, bytes.Equal) {
								t.Fatalf("%s: Invert(%#x) = %x, want %x", name, h, got, exp)
							}
						}
						got, err := tbl.Serialize()
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(got, want) {
							t.Fatalf("%s: Serialize differs from the reference bytes", name)
						}
					}
				}
			}
		}
	})
}

// TestChainWalksDoNotAllocate pins the allocation contract: a chain walk
// hashes out of the caller's scratch key and allocates nothing, and a
// lookup allocates its scratch key and its results — never per link or
// per try.
func TestChainWalksDoNotAllocate(t *testing.T) {
	space := nfhash.UDPFlowSpace{SrcNet: 0x0a00, DstIP: 0xc0a80101, DstPort: 80}
	tbl, err := Build(nfhash.RingHash, space, DefaultConfig(12))
	if err != nil {
		t.Fatal(err)
	}
	key := make([]byte, space.KeyLen())
	seed := uint64(1)
	if n := testing.AllocsPerRun(100, func() { seed = tbl.walk(key, seed) }); n != 0 {
		t.Errorf("chain walk: %v allocs, want 0", n)
	}
	// The group walks Build runs: through Fill and the hash (a TableHash
	// table), the ring lanes, and the AVX-512 kernel.
	type path struct {
		hash func([]byte) uint64
		simd bool
	}
	paths := map[string]path{"generic": {nfhash.TableHash, false}, "portable": {nfhash.RingHash, false}}
	if haveAVX512() {
		paths["simd"] = path{nfhash.RingHash, true}
	} else {
		t.Log("no AVX-512: the SIMD ring walk's allocations are not checked")
	}
	for name, p := range paths {
		_, width, walkGroup := tbl.walker(space, p.hash, p.simd)
		v := make([]uint64, width)
		if n := testing.AllocsPerRun(100, func() { walkGroup(key, v) }); n != 0 {
			t.Errorf("%s group walk: %v allocs, want 0", name, n)
		}
	}
	// One scratch key, one copy per returned key, and the result slice's
	// growth (at most one reallocation per key).
	lookup := func(name string, find func() [][]byte) {
		keys := len(find())
		if keys == 0 {
			t.Fatalf("%s found nothing; the bound below would be vacuous", name)
		}
		if n := testing.AllocsPerRun(10, func() { find() }); n > float64(1+2*keys) {
			t.Errorf("%s: %v allocs for %d keys, want at most %d", name, n, keys, 1+2*keys)
		}
	}
	target := nfhash.Masked(nfhash.RingHash, 12)(space.FromSeed(7))
	lookup("Invert", func() [][]byte { return tbl.Invert(target, 16) })
	lookup("BruteForce", func() [][]byte { return tbl.BruteForce(target, 4, 1<<16, 3) })
}

func TestSelfCheckPassesOnHealthyTable(t *testing.T) {
	tbl, err := Build(nfhash.TableHash, nfhash.RawSpace{Len: 4}, DefaultConfig(12))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.ChainLen() != DefaultConfig(12).ChainLen {
		t.Fatalf("ChainLen = %d", tbl.ChainLen())
	}
	if err := tbl.SelfCheck(0); err != nil {
		t.Fatalf("full self-check failed on healthy table: %v", err)
	}
	if err := tbl.SelfCheck(8); err != nil {
		t.Fatalf("sampled self-check failed: %v", err)
	}
}

func TestSerializeLoadRoundTrip(t *testing.T) {
	space := nfhash.UDPFlowSpace{SrcNet: 0x0a00, DstIP: 0xc0a80101, DstPort: 80}
	tbl, err := Build(nfhash.TableHash, space, DefaultConfig(12))
	if err != nil {
		t.Fatal(err)
	}
	data, err := tbl.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	// Serialization is deterministic.
	again, err := tbl.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(again) {
		t.Fatal("repeated Serialize produced different bytes")
	}
	got, err := LoadTable(data, nfhash.TableHash, space)
	if err != nil {
		t.Fatal(err)
	}
	if got.Bits() != tbl.Bits() || got.Chains() != tbl.Chains() || got.ChainLen() != tbl.ChainLen() {
		t.Fatalf("shape changed across round trip: %d/%d/%d", got.Bits(), got.Chains(), got.ChainLen())
	}
	if err := got.SelfCheck(0); err != nil {
		t.Fatalf("loaded table fails self-check: %v", err)
	}
	// The loaded table answers lookups identically.
	hash := nfhash.Masked(nfhash.TableHash, 12)
	rng := stats.NewRNG(9)
	for i := 0; i < 50; i++ {
		target := hash(space.FromSeed(rng.Uint64()))
		want := tbl.Invert(target, 3)
		have := got.Invert(target, 3)
		if len(want) != len(have) {
			t.Fatalf("Invert(%#x): %d candidates, want %d", target, len(have), len(want))
		}
		for j := range want {
			if string(want[j]) != string(have[j]) {
				t.Fatalf("Invert(%#x) candidate %d differs", target, j)
			}
		}
	}
	// Round-tripping the loaded table reproduces the same bytes.
	data2, err := got.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatal("serialize(load(serialize(t))) != serialize(t)")
	}
}

func TestLoadTableRejectsMalformed(t *testing.T) {
	space := nfhash.RawSpace{Len: 4}
	one := func(bits, chainLen uint32, nchains uint64) []byte {
		return rawTable(bits, chainLen, 1, nchains, []uint32{1}, []uint64{2})
	}
	cases := map[string][]byte{
		"garbage":        []byte(`not a table`),
		"short-header":   one(12, 8, 1)[:tableHeader-1],
		"json-v1":        []byte(`{"bits":12,"chain_len":8,"seed":1,"nchains":1,"ends":[{"end":1,"starts":[2]}]}`),
		"zero-bits":      one(0, 8, 1),
		"wide-bits":      one(40, 8, 1),
		"zero-chain-len": one(12, 0, 1),
		"no-chains":      rawTable(12, 8, 1, 0, nil, nil),
		"count-mismatch": one(12, 8, 3),
		"truncated":      one(12, 8, 1)[:tableHeader+chainBytes-1],
		"trailing-bytes": append(one(12, 8, 1), 0),
		// Sizing anything from this claim before checking it against the
		// payload length would panic.
		"huge-count":      rawTable(12, 8, 1, 1<<62, nil, nil),
		"wide-end":        rawTable(12, 8, 1, 1, []uint32{1 << 12}, []uint64{2}),
		"misordered-ends": rawTable(12, 8, 1, 2, []uint32{9, 1}, []uint64{2, 3}),
	}
	for name, data := range cases {
		if _, err := LoadTable(data, nfhash.TableHash, space); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := LoadTable(one(12, 8, 1), nfhash.TableHash, space); err != nil {
		t.Fatalf("well-formed one-chain payload rejected: %v", err)
	}
}

// TestLoadedTamperedTableFailsSelfCheck exercises the trust boundary the
// store relies on: bytes that are structurally valid but carry wrong chain
// data load without error, and only SelfCheck exposes them — which is why
// callers must self-check every table loaded from disk before using it.
func TestLoadedTamperedTableFailsSelfCheck(t *testing.T) {
	space := nfhash.RawSpace{Len: 4}
	tbl, err := Build(nfhash.TableHash, space, DefaultConfig(12))
	if err != nil {
		t.Fatal(err)
	}
	data, err := tbl.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit of every start seed.
	for i := tableHeader + 4*tbl.Chains(); i < len(data); i += 8 {
		data[i] ^= 1
	}
	got, err := LoadTable(data, nfhash.TableHash, space)
	if err != nil {
		t.Fatalf("structurally valid tampered table must load: %v", err)
	}
	if err := got.SelfCheck(1); err == nil {
		t.Fatal("self-check passed on tampered table")
	}
}

func TestSelfCheckCatchesCorruption(t *testing.T) {
	cfg := DefaultConfig(12)
	// Corrupt every other chain end; the table must still build and
	// answer lookups (possibly wrongly), but SelfCheck must notice.
	cfg.Corrupt = func(chain int, end uint64) uint64 {
		if chain%2 == 0 {
			return end ^ 0xdeadbeef
		}
		return end
	}
	tbl, err := Build(nfhash.TableHash, nfhash.RawSpace{Len: 4}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.SelfCheck(0); err == nil {
		t.Fatal("self-check passed on corrupted table")
	}
	// Chain 0 is corrupted, so even a 1-chain spot check catches it.
	if err := tbl.SelfCheck(1); err == nil {
		t.Fatal("spot check missed corrupted chain 0")
	}
	// Its ends are wider than the hash, which the format cannot carry.
	if _, err := tbl.Serialize(); err == nil {
		t.Fatal("table with ends wider than its hash serialized")
	}
}
