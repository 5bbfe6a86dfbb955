package rainbow

import (
	"cmp"
	"encoding/binary"
	"slices"
	"testing"

	"castan/internal/nf"
	"castan/internal/nfhash"
	"castan/internal/stats"
)

// ringPaths runs f once per ring walk Build can take: the portable one
// always, the AVX-512 one where the CPU has it. useSIMD is the seam: it
// is restored when each subtest ends.
func ringPaths(t *testing.T, f func(t *testing.T)) {
	for _, simd := range []bool{false, true} {
		t.Run(pathName(simd), func(t *testing.T) {
			if simd && !haveAVX512() {
				t.Skip("no AVX512F/AVX512DQ with OS-saved ZMM state: the SIMD ring walk is not tested on this machine")
			}
			saved := useSIMD
			useSIMD = simd
			t.Cleanup(func() { useSIMD = saved })
			f(t)
		})
	}
}

func pathName(simd bool) string {
	if simd {
		return "simd"
	}
	return "portable"
}

// TestRingTablesTakeARingWalk pins Build's choice of walk: a ring NF's
// table (RingHash itself over a UDPFlowSpace) takes the AVX-512 kernel
// where the CPU has it and the ring lanes elsewhere; every other pair,
// a wrapper around RingHash included, takes the generic lanes. Every
// path builds the same bytes, so no other test would see ring tables
// fall back to the generic walk.
func TestRingTablesTakeARingWalk(t *testing.T) {
	if useSIMD != haveAVX512() {
		t.Fatalf("useSIMD is %v on a CPU where haveAVX512 is %v", useSIMD, haveAVX512())
	}
	ring := ringLanesPath
	if haveAVX512() {
		ring = ringSIMDPath
	}
	space := nfhash.UDPFlowSpace{SrcNet: 0x0a00, DstIP: 0x08080808, DstPort: 53}
	cases := []struct {
		name  string
		space nfhash.KeySpace
		hash  func([]byte) uint64
		want  walkPath
	}{
		{"ring table", space, nfhash.RingHash, ring},
		{"TableHash", space, nfhash.TableHash, lanesPath},
		{"wrapped RingHash", space, func(key []byte) uint64 { return nfhash.RingHash(key) }, lanesPath},
		{"RawSpace", nfhash.RawSpace{Len: nfhash.FlowKeyLen}, nfhash.RingHash, lanesPath},
	}
	tbl := &Table{bits: 20, chainLen: 64}
	for _, c := range cases {
		// The call Build makes.
		if path, _, _ := tbl.walker(c.space, c.hash, useSIMD); path != c.want {
			t.Errorf("%s: walk path %d, want %d", c.name, path, c.want)
		}
	}
}

// TestRingWalkMatchesScalar holds each ring walk Build can take to the
// scalar walk SelfCheck and Invert use: every chain of a built table
// must end where walk ends it, over hash widths from 1 to 32 bits, chain
// lengths from 1 link, and chain counts that leave short walk groups
// and a ragged last build chunk.
func TestRingWalkMatchesScalar(t *testing.T) {
	space := nfhash.UDPFlowSpace{SrcNet: 0x0a00, DstIP: nf.LBVIP, DstPort: 80}
	ringPaths(t, func(t *testing.T) {
		for _, bits := range []int{1, 8, 16, 20, 31, 32} {
			for _, chainLen := range []int{1, 2, 3, 64} {
				for _, chains := range []int{1, 31, 33, buildChunk, buildChunk + 1} {
					cfg := Config{Bits: bits, Chains: chains, ChainLen: chainLen, Seed: 0x9a3b, Workers: 2}
					tbl, err := Build(nfhash.RingHash, space, cfg)
					if err != nil {
						t.Fatal(err)
					}
					// The scalar walk of every chain, in chain order, then
					// ordered by end the way the index must be.
					type link struct{ end, start uint64 }
					want := make([]link, chains)
					key := make([]byte, space.KeyLen())
					rng := stats.NewRNG(cfg.Seed)
					for c := range want {
						start := rng.Uint64()
						want[c] = link{tbl.walk(key, start), start}
					}
					slices.SortStableFunc(want, func(a, b link) int {
						return cmp.Compare(a.end, b.end)
					})
					for i, l := range want {
						if tbl.ends[i] != l.end || tbl.starts[i] != l.start {
							t.Fatalf("bits=%d len=%d chains=%d: index entry %d is (%#x, %#x), want (%#x, %#x)",
								bits, chainLen, chains, i, tbl.ends[i], tbl.starts[i], l.end, l.start)
						}
					}
				}
			}
		}
	})
}

// FuzzRingWalk holds each ring walk to the scalar walk on arbitrary
// start seeds, spaces, hash widths (1-32 bits) and chain lengths
// (1-64). Seeds come from the byte input, eight bytes a lane,
// zero-padded to the walk's width.
func FuzzRingWalk(f *testing.F) {
	f.Add(uint16(0x0a00), uint32(0x08080808), uint16(53), uint8(19), uint8(63), []byte("thirty-two chains of seeds, eight bytes a chain, give or take a few"))
	f.Add(uint16(0xffff), uint32(0), uint16(0xffff), uint8(31), uint8(0), []byte{0xff})
	f.Fuzz(func(t *testing.T, srcNet uint16, dstIP uint32, dstPort uint16, bits, chainLen uint8, raw []byte) {
		space := nfhash.UDPFlowSpace{SrcNet: srcNet, DstIP: dstIP, DstPort: dstPort}
		tbl := &Table{bits: 1 + int(bits%32), space: space, chainLen: 1 + int(chainLen%64)}
		tbl.hash = nfhash.Masked(nfhash.RingHash, tbl.bits)
		key := make([]byte, space.KeyLen())
		var buf [8 * maxWidth]byte
		copy(buf[:], raw)
		for _, simd := range []bool{false, haveAVX512()} {
			_, width, walkGroup := tbl.walker(space, nfhash.RingHash, simd)
			v := make([]uint64, width)
			for i := range v {
				v[i] = binary.LittleEndian.Uint64(buf[8*i:])
			}
			seeds := slices.Clone(v)
			walkGroup(key, v)
			for i, seed := range seeds {
				if want := tbl.walk(key, seed); v[i] != want {
					t.Fatalf("simd=%v %+v bits=%d len=%d lane %d seed %#x: end %#x, want %#x",
						simd, space, tbl.bits, tbl.chainLen, i, seed, v[i], want)
				}
			}
		}
	})
}

// TestSortIndexIsStableByEnd holds the radix index to a stable sort by
// end, over end widths of one to four 16-bit digits and ends that tie.
func TestSortIndexIsStableByEnd(t *testing.T) {
	rng := stats.NewRNG(3)
	for _, width := range []int{0, 1, 15, 16, 17, 32, 33, 48, 64} {
		for _, n := range []int{0, 1, 2, 1000} {
			ends, starts := make([]uint64, n), make([]uint64, n)
			for c := range ends {
				if width > 0 {
					ends[c] = rng.Uint64() >> (64 - width)
				}
				if c%3 == 0 && c > 0 {
					ends[c] = ends[c-1] // a merge
				}
				starts[c] = uint64(c)
			}
			type link struct{ end, start uint64 }
			want := make([]link, n)
			for c := range want {
				want[c] = link{ends[c], starts[c]}
			}
			slices.SortStableFunc(want, func(a, b link) int { return cmp.Compare(a.end, b.end) })
			sortIndex(ends, starts)
			for i, l := range want {
				if ends[i] != l.end || starts[i] != l.start {
					t.Fatalf("width=%d n=%d: entry %d is (%#x, %d), want (%#x, %d)", width, n, i, ends[i], starts[i], l.end, l.start)
				}
			}
		}
	}
}
