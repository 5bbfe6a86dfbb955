package rainbow

import "castan/internal/nfhash"

// How Build walks its chains. Every walker computes exactly what walk
// does, chain by chain, so the path taken never decides a table byte;
// SelfCheck and Invert keep the scalar walk, which makes every integrity
// check of a built table an independent recomputation.
type walkPath int

const (
	// lanesPath walks nfhash.Lanes chains per call through walkLanes,
	// hashing each lane's key through Fill and the hash: any table but a
	// ring NF's.
	lanesPath walkPath = iota
	// ringLanesPath walks RingHash over a UDPFlowSpace (the ring NFs)
	// nfhash.Lanes chains per call through walkLanes, hashing each lane
	// straight from its seed with nfhash.RingKey.Lanes.
	ringLanesPath
	// ringSIMDPath walks the same pair simdWidth chains per call through
	// walkRingSIMD, an assembly kernel that computes reduce and the ring
	// hash from the seed's bytes, on a CPU with AVX-512.
	ringSIMDPath
)

// useSIMD selects the AVX-512 ring walk. It is set once, from the CPU's
// features; tests clear it to exercise the portable walk on a machine
// that has AVX-512.
var useSIMD = haveAVX512()

// simdWidth is how many chains one walkRingSIMD call walks: four groups
// of eight 64-bit lanes, interleaved so that each group's multiplies
// overlap the latency of the others'.
const simdWidth = 32

// maxWidth is the widest group any walker takes.
const maxWidth = max(simdWidth, nfhash.Lanes)

// walker picks how Build walks the table's chains: width chains per
// call to walkGroup, which replaces each start seed in v (len(v) ==
// width) with its chain's end. key is the calling worker's scratch key.
// simd selects the AVX-512 ring walk, which only a CPU haveAVX512
// approves can run. path names the walk chosen: every path builds the
// same bytes, so only the path shows which one a table took.
func (t *Table) walker(space nfhash.KeySpace, hash func([]byte) uint64, simd bool) (path walkPath, width int, walkGroup func(key []byte, v []uint64)) {
	ring, ok := space.(nfhash.UDPFlowSpace)
	switch {
	case !ok || !isRingHash(hash):
		return lanesPath, nfhash.Lanes, func(key []byte, v []uint64) {
			t.walkLanes((*[nfhash.Lanes]uint64)(v), func(v *[nfhash.Lanes]uint64) {
				for i := range v {
					v[i] = t.step(key, v[i])
				}
			})
		}
	case simd:
		k := newRingKernel(ring.RingKey(), t.mask(), t.chainLen)
		return ringSIMDPath, simdWidth, func(_ []byte, v []uint64) { walkRingSIMD((*[simdWidth]uint64)(v), k) }
	default:
		k, mask := ring.RingKey(), t.mask()
		step := func(v *[nfhash.Lanes]uint64) { k.Lanes(v, mask) }
		return ringLanesPath, nfhash.Lanes, func(_ []byte, v []uint64) { t.walkLanes((*[nfhash.Lanes]uint64)(v), step) }
	}
}

// mask is the table's hash width as a bit mask.
func (t *Table) mask() uint64 { return uint64(1)<<uint(t.bits) - 1 }

// ringKernel is walkRingSIMD's constant pool: every constant the kernel
// uses, one word each, broadcast to all eight lanes of an operand where
// it is used. All of them come from the names RingHash, mix64 and reduce
// are written with and from the space's nfhash.RingKey, so the assembly
// holds no numbers of its own and no copy of the key layout. The
// field order is the assembly's offsets (the k_* defines in
// walk_amd64.s).
type ringKernel struct {
	links uint64 // chain length, ≥ 1

	reduceStep, reduceOffset, reduceShift, reduceMul uint64

	// RingHash's rounds over the key, laid out as nfhash.RingKey.
	prime     uint64    // one round's multiplier
	byteMask  uint64    // one key byte
	net       uint64    // the state after the source net's two bytes
	seedShift [4]uint64 // the seed bytes' shifts, in key order
	dstIP     [4]uint64 // the destination address's bytes
	tail      [3]uint64 // the destination port's bytes, the protocol

	// RingHash's finalizer: its own xorshift, then mix64's rounds.
	finalShift, mixShift, mixMul1, mixMul2 uint64

	mask uint64 // the table's hash width
}

// newRingKernel lays out the kernel's constants for RingHash over the
// key layout k, hashes masked to mask, chains of chainLen links.
func newRingKernel(k nfhash.RingKey, mask uint64, chainLen int) *ringKernel {
	r := &ringKernel{
		links:        uint64(chainLen),
		reduceStep:   reduceStep,
		reduceOffset: reduceOffset,
		reduceShift:  reduceShift,
		reduceMul:    reduceMul,
		prime:        nfhash.RingPrime,
		byteMask:     0xff,
		net:          k.Net,
		finalShift:   nfhash.RingFinalShift,
		mixShift:     nfhash.MixShift,
		mixMul1:      nfhash.MixMul1,
		mixMul2:      nfhash.MixMul2,
		mask:         mask,
	}
	for i, sh := range k.SeedShift {
		r.seedShift[i] = uint64(sh)
	}
	for i, b := range k.DstIP {
		r.dstIP[i] = uint64(b)
	}
	for i, b := range k.Tail {
		r.tail[i] = uint64(b)
	}
	return r
}
