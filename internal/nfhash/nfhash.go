// Package nfhash provides the hash functions the evaluated network
// functions use to index their flow tables, plus the key-space definitions
// shared with the rainbow-table inverter (internal/rainbow).
//
// Like the hashes in real NF code, these are fast mixing functions, not
// cryptographic: CASTAN's premise (§3.5) is exactly that such hashes can
// be reversed offline with precomputed tables even though symbolically
// executing them would drown the solver.
package nfhash

import "encoding/binary"

// TableHash indexes separate-chaining hash tables. It is a 64-bit
// multiply-xor mix over the key (murmur-style finalization), truncated by
// callers to the table's bit width.
func TableHash(key []byte) uint64 {
	h := uint64(0x9368e53c2f6af274)
	for len(key) >= 8 {
		k := binary.BigEndian.Uint64(key)
		h ^= mix64(k)
		h = h*0x100000001b3 + 0x27d4eb2f165667c5
		key = key[8:]
	}
	var tail uint64
	for _, b := range key {
		tail = tail<<8 | uint64(b)
	}
	h ^= mix64(tail + uint64(len(key)))
	return mix64(h)
}

// RingHash indexes the open-addressing hash ring. A different constant
// family keeps it independent from TableHash.
func RingHash(key []byte) uint64 {
	h := RingInit
	for _, b := range key {
		h = ringRound(h, b)
	}
	return ringFinal(h)
}

// The hashes' constants: RingHash's start state, per-byte multiplier and
// finalizer shift, and the mix64 finalizer both hashes end in. They are
// exported for kernels that compute RingHash outside this package
// (internal/rainbow's AVX-512 chain walk), so every copy of the function
// is built from these names.
const (
	RingInit       uint64 = 0xc2b2ae3d27d4eb4f
	RingPrime      uint64 = 0x00000100000001b3
	RingFinalShift        = 17
	MixShift              = 33
	MixMul1        uint64 = 0xff51afd7ed558ccd
	MixMul2        uint64 = 0xc4ceb9fe1a85ec53
)

// RingHash's state: one round per key byte, and the finalizer.
// RingKey.Lanes runs the same two, so the two cannot drift.
func ringRound(h uint64, b byte) uint64 { return (h ^ uint64(b)) * RingPrime }

func ringFinal(h uint64) uint64 { return mix64(h ^ h>>RingFinalShift) }

// Lanes is how many seeds RingKey.Lanes hashes per call.
const Lanes = 8

// RingKey is a UDPFlowSpace's keys as RingHash consumes them, for
// kernels that hash a key straight from its seed without building it
// (Lanes below, internal/rainbow's AVX-512 chain walk). After the two
// fixed source-net bytes, Fill's 13-byte key is two seed bytes, four
// fixed, two seed bytes and three fixed.
type RingKey struct {
	// Net is the ring state after key bytes 0-1, the source net.
	Net uint64
	// SeedShift places the seed in the key: key bytes 2, 3, 8 and 9 (the
	// source address's low half, then the source port) are
	// byte(seed >> SeedShift[i]), in that order.
	SeedShift [4]uint
	// DstIP is key bytes 4-7 and Tail bytes 10-12: the destination port
	// and the protocol.
	DstIP [4]byte
	Tail  [3]byte
}

// RingKey lays out s's keys for RingHash. It is Fill, byte for byte.
func (s UDPFlowSpace) RingKey() RingKey {
	return RingKey{
		Net:       ringRound(ringRound(RingInit, byte(s.SrcNet>>8)), byte(s.SrcNet)),
		SeedShift: [4]uint{srcLowShift + 8, srcLowShift, srcPortShift + 8, srcPortShift},
		DstIP:     [4]byte{byte(s.DstIP >> 24), byte(s.DstIP >> 16), byte(s.DstIP >> 8), byte(s.DstIP)},
		Tail:      [3]byte{byte(s.DstPort >> 8), byte(s.DstPort), udpProto},
	}
}

// Lanes replaces each of the eight seeds in v with
// RingHash(s.FromSeed(seed)) & mask, s the space k was laid out from.
// It takes the seed's bytes with the shifts SeedShift holds, as
// constants. One RingHash is a chain of dependent multiplies; eight
// independent lanes let the CPU overlap them where hashing one key at a
// time leaves the multiplier waiting.
func (k *RingKey) Lanes(v *[Lanes]uint64, mask uint64) {
	for i, seed := range v {
		h := ringRound(ringRound(k.Net, byte(seed>>(srcLowShift+8))), byte(seed>>srcLowShift))
		h = ringRound(ringRound(h, k.DstIP[0]), k.DstIP[1])
		h = ringRound(ringRound(h, k.DstIP[2]), k.DstIP[3])
		h = ringRound(ringRound(h, byte(seed>>(srcPortShift+8))), byte(seed>>srcPortShift))
		h = ringRound(ringRound(ringRound(h, k.Tail[0]), k.Tail[1]), k.Tail[2])
		v[i] = ringFinal(h) & mask
	}
}

func mix64(v uint64) uint64 {
	v ^= v >> MixShift
	v *= MixMul1
	v ^= v >> MixShift
	v *= MixMul2
	v ^= v >> MixShift
	return v
}

// Masked wraps a hash function, truncating its output to bits.
func Masked(fn func([]byte) uint64, bits int) func([]byte) uint64 {
	mask := uint64(1)<<uint(bits) - 1
	if bits >= 64 {
		mask = ^uint64(0)
	}
	return func(key []byte) uint64 { return fn(key) & mask }
}

// KeySpace enumerates a structured subset of an NF's key space. Rainbow
// reduction functions map hash values back into the key space through
// Fill, which is why a *tailored* space (matching the packet
// constraints, e.g. "UDP only, this destination") makes inversion succeed
// where a generic space would reject almost every candidate (§3.5).
type KeySpace interface {
	// KeyLen is the byte length of produced keys.
	KeyLen() int
	// Fill derives a key deterministically from a 64-bit seed into dst,
	// which must be KeyLen bytes long; every byte of dst is overwritten.
	// Distinct seeds should produce well-spread keys. Chain walks call it
	// on one reused buffer, so it must not allocate.
	Fill(dst []byte, seed uint64)
	// FromSeed is Fill into a freshly allocated key.
	FromSeed(seed uint64) []byte
}

// FlowKeyLen is the canonical 13-byte 5-tuple key layout:
// srcIP(4) dstIP(4) srcPort(2) dstPort(2) proto(1).
const FlowKeyLen = 13

// UDPFlowSpace is the tailored key space of §3.5's evaluation: UDP flows
// toward one fixed destination (the NAT's external interface or the LB's
// VIP), with the source address confined to a /16 and free source port —
// 32 free bits total.
type UDPFlowSpace struct {
	// SrcNet is the upper 16 bits of permissible source IPs, e.g. 0x0a00
	// for 10.0.0.0/16.
	SrcNet uint16
	// DstIP and DstPort pin the destination.
	DstIP   uint32
	DstPort uint16
}

// KeyLen implements KeySpace.
func (s UDPFlowSpace) KeyLen() int { return FlowKeyLen }

// Fill implements KeySpace: bits 0-15 become the low source IP bytes,
// bits 16-31 the source port.
func (s UDPFlowSpace) Fill(k []byte, seed uint64) {
	_ = k[FlowKeyLen-1]
	srcIP := uint32(s.SrcNet)<<16 | uint32(uint16(seed>>srcLowShift))
	srcPort := uint16(seed >> srcPortShift)
	binary.BigEndian.PutUint32(k[0:], srcIP)
	binary.BigEndian.PutUint32(k[4:], s.DstIP)
	binary.BigEndian.PutUint16(k[8:], srcPort)
	binary.BigEndian.PutUint16(k[10:], s.DstPort)
	k[12] = udpProto
}

// Where Fill takes a UDPFlowSpace key's free fields from the seed, and
// its fixed last byte.
const (
	srcLowShift  = 0  // the source address's low half: seed bits 0-15
	srcPortShift = 16 // the source port: seed bits 16-31
	udpProto     = 17 // the IP protocol number of UDP
)

// FromSeed implements KeySpace.
func (s UDPFlowSpace) FromSeed(seed uint64) []byte {
	k := make([]byte, FlowKeyLen)
	s.Fill(k, seed)
	return k
}

// RawSpace is a generic fixed-length byte key space for tests: keys are
// the seed's big-endian bytes, zero-padded or truncated to Len.
type RawSpace struct{ Len int }

// KeyLen implements KeySpace.
func (s RawSpace) KeyLen() int { return s.Len }

// Fill implements KeySpace: the seed's big-endian bytes, right-aligned
// in the key.
func (s RawSpace) Fill(k []byte, seed uint64) {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], seed)
	if s.Len >= 8 {
		clear(k[:s.Len-8])
		copy(k[s.Len-8:], buf[:])
	} else {
		copy(k, buf[8-s.Len:])
	}
}

// FromSeed implements KeySpace.
func (s RawSpace) FromSeed(seed uint64) []byte {
	k := make([]byte, s.Len)
	s.Fill(k, seed)
	return k
}
