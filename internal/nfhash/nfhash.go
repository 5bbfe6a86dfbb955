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
	h := uint64(ringInit)
	for _, b := range key {
		h = ringRound(h, b)
	}
	return ringFinal(h)
}

// RingHash's state: its start value, one round per key byte, and the
// finalizer. RingLanes runs the same three, so the two cannot drift.
const ringInit = 0xc2b2ae3d27d4eb4f

func ringRound(h uint64, b byte) uint64 { return (h ^ uint64(b)) * 0x00000100000001b3 }

func ringFinal(h uint64) uint64 { return mix64(h ^ h>>17) }

// Lanes is how many seeds RingLanes hashes per call.
const Lanes = 8

// RingLanes replaces each of the eight seeds in v with
// RingHash(s.FromSeed(seed)) & mask. It builds no key: each lane is
// hashed straight from its seed, with the space's fixed source-net bytes
// folded into the start state once per call. One RingHash is a chain of
// dependent multiplies; eight independent lanes let the CPU overlap them
// where hashing one key at a time leaves the multiplier waiting.
func RingLanes(s UDPFlowSpace, v *[Lanes]uint64, mask uint64) {
	// Fill's layout: srcNet(2) srcLow(2) dstIP(4) srcPort(2) dstPort(2)
	// proto(1), the seed supplying srcLow (bits 0-15) and srcPort (16-31).
	pre := ringRound(ringRound(ringInit, byte(s.SrcNet>>8)), byte(s.SrcNet))
	for i, seed := range v {
		h := ringRound(ringRound(pre, byte(seed>>8)), byte(seed))
		h = ringRound(ringRound(h, byte(s.DstIP>>24)), byte(s.DstIP>>16))
		h = ringRound(ringRound(h, byte(s.DstIP>>8)), byte(s.DstIP))
		h = ringRound(ringRound(h, byte(seed>>24)), byte(seed>>16))
		h = ringRound(ringRound(ringRound(h, byte(s.DstPort>>8)), byte(s.DstPort)), 17)
		v[i] = ringFinal(h) & mask
	}
}

func mix64(v uint64) uint64 {
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	v *= 0xc4ceb9fe1a85ec53
	v ^= v >> 33
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
	srcIP := uint32(s.SrcNet)<<16 | uint32(seed&0xffff)
	srcPort := uint16(seed >> 16)
	binary.BigEndian.PutUint32(k[0:], srcIP)
	binary.BigEndian.PutUint32(k[4:], s.DstIP)
	binary.BigEndian.PutUint16(k[8:], srcPort)
	binary.BigEndian.PutUint16(k[10:], s.DstPort)
	k[12] = 17 // UDP
}

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
