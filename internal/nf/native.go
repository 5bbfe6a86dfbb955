package nf

import (
	"castan/internal/nfhash"
	"castan/internal/packet"
)

// This file holds native Go reference implementations of the NF
// semantics. They share nothing with the IR NFs except the configuration
// constants, which makes them useful as differential-test oracles: for any
// packet sequence, the IR NF executed by the interpreter must produce the
// same actions and header rewrites as these.

// NativeLPM is the reference LPM (any data structure; semantics only).
type NativeLPM struct {
	routes []Route
	// maxLen limits the supported prefix length (24 for the direct-lookup
	// variants, 32 for the trie).
	maxLen int
}

// NewNativeLPM builds the reference LPM.
func NewNativeLPM(with32 bool) *NativeLPM {
	maxLen := 24
	if with32 {
		maxLen = 32
	}
	return &NativeLPM{routes: DefaultFIB(with32), maxLen: maxLen}
}

// Process returns the port for the frame (0 = no route / drop).
func (l *NativeLPM) Process(frame []byte) uint64 {
	p, err := packet.Parse(frame)
	if err != nil {
		return RetDrop
	}
	return uint64(LookupFIB(l.routes, p.IP.Dst))
}

// NativeNAT is the reference source NAT.
type NativeNAT struct {
	fwd      map[packet.FiveTuple]*natFlow
	rev      map[packet.FiveTuple]*natFlow
	nextPort uint64
}

type natFlow struct {
	extPort  uint16
	origIP   uint32
	origPort uint16
}

// NewNativeNAT builds the reference NAT.
func NewNativeNAT() *NativeNAT {
	return &NativeNAT{
		fwd:      map[packet.FiveTuple]*natFlow{},
		rev:      map[packet.FiveTuple]*natFlow{},
		nextPort: NATFirstPort,
	}
}

// Process applies NAT semantics in place on the frame and returns the
// action code.
func (n *NativeNAT) Process(frame []byte) uint64 {
	p, err := packet.Parse(frame)
	if err != nil {
		return RetDrop
	}
	t := p.Tuple()
	if t.SrcIP&NATInternalMask == NATInternalNet&NATInternalMask {
		f := n.fwd[t]
		if f == nil {
			f = &natFlow{
				extPort:  uint16(n.nextPort),
				origIP:   t.SrcIP,
				origPort: t.SrcPort,
			}
			n.nextPort++
			n.fwd[t] = f
			rev := packet.FiveTuple{
				SrcIP: t.DstIP, DstIP: NATExternalIP,
				SrcPort: t.DstPort, DstPort: f.extPort, Proto: t.Proto,
			}
			n.rev[rev] = f
		}
		writeU32(frame, packet.OffIPSrc, NATExternalIP)
		writeU16(frame, packet.OffL4SrcPort, f.extPort)
		return RetOut
	}
	if t.DstIP != NATExternalIP {
		return RetDrop
	}
	f := n.rev[t]
	if f == nil {
		return RetDrop
	}
	writeU32(frame, packet.OffIPDst, f.origIP)
	writeU16(frame, packet.OffL4DstPort, f.origPort)
	return RetIn
}

// NativeLB is the reference load balancer.
type NativeLB struct {
	flows map[packet.FiveTuple]uint32
	rr    uint64
}

// NewNativeLB builds the reference LB.
func NewNativeLB() *NativeLB {
	return &NativeLB{flows: map[packet.FiveTuple]uint32{}}
}

// Process applies LB semantics in place and returns the action code.
func (l *NativeLB) Process(frame []byte) uint64 {
	p, err := packet.Parse(frame)
	if err != nil {
		return RetDrop
	}
	t := p.Tuple()
	if t.SrcIP&0xffff0000 == LBBackendBase&0xffff0000 {
		writeU32(frame, packet.OffIPSrc, LBVIP)
		return RetIn
	}
	if t.DstIP != LBVIP {
		return RetDrop
	}
	b, ok := l.flows[t]
	if !ok {
		b = LBBackendBase + uint32(l.rr%LBBackends)
		l.rr++
		l.flows[t] = b
	}
	writeU32(frame, packet.OffIPDst, b)
	return RetOut
}

func writeU32(b []byte, off int, v uint32) {
	b[off] = byte(v >> 24)
	b[off+1] = byte(v >> 16)
	b[off+2] = byte(v >> 8)
	b[off+3] = byte(v)
}

func writeU16(b []byte, off int, v uint16) {
	b[off] = byte(v >> 8)
	b[off+1] = byte(v)
}

// ChainBucketOf returns the bucket index the chaining table uses for a
// tuple — exposed so tests and workload crafting can reason about
// collisions.
func ChainBucketOf(t packet.FiveTuple) uint64 {
	k := t.Bytes()
	return nfhash.TableHash(k[:]) & (ChainBuckets - 1)
}
