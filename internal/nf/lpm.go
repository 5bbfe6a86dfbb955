package nf

import (
	"bytes"
	"fmt"

	"castan/internal/interp"
	"castan/internal/ir"
	"castan/internal/packet"
)

// Trie node layout (heap records; the bump allocator rounds each to its
// own cache line, as a malloc with per-node headers tends to):
//
//	+0  left child address (8)
//	+8  right child address (8)
//	+16 port (4)
//	+20 valid flag (4)
const (
	trieOffLeft  = 0
	trieOffRight = 8
	trieOffPort  = 16
	trieOffValid = 20
	trieNodeSize = 24
)

// NewLPMTrie builds LPM over a binary (Patricia-style) trie: lookup walks
// destination-address bits from the MSB, remembering the last valid port.
// Susceptible to algorithmic attacks: addresses matching the most
// specific routes walk the longest paths (§5.3).
func NewLPMTrie() (*Instance, error) {
	mod := ir.NewModule("lpm-trie")
	rootG := mod.AddGlobal("trie_root", 8, 64)
	mod.Layout()

	fb := mod.NewFunc("nf_process", 2)
	pkt := fb.Param(0)
	emitIPv4Guard(fb, pkt)
	dst := fb.Load(pkt, packet.OffIPDst, 4)
	node := fb.Var(fb.Load(fb.GlobalAddr(rootG), 0, 8))
	best := fb.VarImm(0)
	depth := fb.VarImm(0)
	thirtyOne := fb.Const(31)
	one := fb.Const(1)
	fb.While(func() ir.Reg {
		nz := fb.CmpNeImm(node.R(), 0)
		ok := fb.CmpUle(depth.R(), fb.Const(32))
		return fb.And(nz, ok)
	}, func() {
		valid := fb.Load(node.R(), trieOffValid, 4)
		fb.If(valid, func() {
			best.Set(fb.Load(node.R(), trieOffPort, 4))
		}, nil)
		bit := fb.And(fb.Lshr(dst, fb.Sub(thirtyOne, depth.R())), one)
		fb.If(bit, func() {
			node.Set(fb.Load(node.R(), trieOffRight, 8))
		}, func() {
			node.Set(fb.Load(node.R(), trieOffLeft, 8))
		})
		depth.Set(fb.Add(depth.R(), one))
	})
	fb.Ret(best.R())
	fb.Seal()

	routes := DefaultFIB(true)
	mach, err := finish("lpm-trie", mod, func(m *interp.Machine) error {
		return buildTrie(m, rootG.Addr, routes)
	})
	if err != nil {
		return nil, err
	}
	manual := MostSpecificAddrs(routes)
	return &Instance{
		Name:    "lpm-trie",
		Mod:     mod,
		Machine: mach,
		AttackRegions: []Region{{
			Name: "trie-heap", Addr: ir.HeapBase, Size: mach.HeapUsed(),
		}},
		Manual: func(n int) [][]byte {
			return lpmManualFrames(manual, n)
		},
	}, nil
}

// buildTrie constructs the bit trie in machine memory (control plane).
func buildTrie(m *interp.Machine, rootGlobal uint64, routes []Route) error {
	newNode := func() uint64 { return m.Alloc(trieNodeSize) }
	root := newNode()
	m.Mem.Write(rootGlobal, root, 8)
	for _, r := range routes {
		if r.Len < 0 || r.Len > 32 {
			return fmt.Errorf("bad prefix length %d", r.Len)
		}
		node := root
		for d := 0; d < r.Len; d++ {
			bit := (r.Prefix >> (31 - d)) & 1
			off := uint64(trieOffLeft)
			if bit == 1 {
				off = trieOffRight
			}
			child := m.Mem.Read(node+off, 8)
			if child == 0 {
				child = newNode()
				m.Mem.Write(node+off, child, 8)
			}
			node = child
		}
		m.Mem.Write(node+trieOffPort, uint64(r.Port), 4)
		m.Mem.Write(node+trieOffValid, 1, 4)
	}
	return nil
}

// lpmManualFrames builds n frames cycling over the given destination
// addresses — the paper's hand-crafted trie workload (packets matching
// the most specific routes).
func lpmManualFrames(dsts []uint32, n int) [][]byte {
	if n <= 0 {
		n = len(dsts)
	}
	frames := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		d := dsts[i%len(dsts)]
		frames = append(frames, packet.Build(packet.Spec{
			SrcIP: 0xc0a80000 | uint32(i), DstIP: d,
			SrcPort: uint16(40000 + i), DstPort: 80,
		}))
	}
	return frames
}

// Direct-lookup geometry (scaled from the paper per DESIGN.md): the
// one-stage table covers /24 prefixes in a single 16 MiB byte array
// (128 × L3); the two-stage first table covers /16 in 256 KiB (2 × L3)
// with 256-entry second-stage blocks for longer prefixes.
const (
	dl1Bits      = 24
	dl1Entries   = 1 << dl1Bits // 16 Mi one-byte ports
	dl2Stage1Len = 1 << 16 * 4  // 65536 × uint32
	dl2BlockLen  = 256 * 4
	dl2MaxBlocks = 64
	dl2Flag      = 0x80000000
)

// NewLPMDirect1 builds one-stage direct lookup: one giant array indexed by
// the top 24 destination bits. One memory access per packet, but the
// array dwarfs the L3 cache — the paper's prime cache-contention victim
// (§5.2, Figures 4/5).
func NewLPMDirect1() (*Instance, error) {
	mod := ir.NewModule("lpm-dl1")
	tbl := mod.AddGlobal("dl1_table", dl1Entries, 4096)
	mod.Layout()

	fb := mod.NewFunc("nf_process", 2)
	pkt := fb.Param(0)
	emitIPv4Guard(fb, pkt)
	dst := fb.Load(pkt, packet.OffIPDst, 4)
	idx := fb.LshrImm(dst, 32-dl1Bits)
	port := fb.Load(fb.Add(fb.GlobalAddr(tbl), idx), 0, 1)
	fb.Ret(port)
	fb.Seal()

	routes := DefaultFIB(false)
	mach, err := finish("lpm-dl1", mod, func(m *interp.Machine) error {
		// Expand every route into equal-length /24 entries, most specific
		// last so it wins.
		for l := 0; l <= 24; l++ {
			for _, r := range routes {
				if r.Len != l {
					continue
				}
				start := uint64(r.Prefix) >> (32 - dl1Bits)
				count := 1 << (dl1Bits - r.Len)
				m.Mem.WriteBytes(tbl.Addr+start, bytes.Repeat([]byte{byte(r.Port)}, count))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Instance{
		Name:    "lpm-dl1",
		Mod:     mod,
		Machine: mach,
		AttackRegions: []Region{{
			Name: "dl1-table", Addr: tbl.Addr, Size: tbl.Size,
		}},
	}, nil
}

// NewLPMDirect2 builds the DPDK-style two-stage direct lookup: a /16
// first-stage array whose entries either hold a port or point into a
// 256-entry second-stage block. At most two memory accesses per packet;
// the small first stage makes cache-contention workloads hard to find
// (§5.2, Figure 6).
func NewLPMDirect2() (*Instance, error) {
	mod := ir.NewModule("lpm-dl2")
	t1 := mod.AddGlobal("dl2_stage1", dl2Stage1Len, 4096)
	t2 := mod.AddGlobal("dl2_stage2", dl2MaxBlocks*dl2BlockLen, 4096)
	mod.Layout()

	fb := mod.NewFunc("nf_process", 2)
	pkt := fb.Param(0)
	emitIPv4Guard(fb, pkt)
	dst := fb.Load(pkt, packet.OffIPDst, 4)
	i1 := fb.LshrImm(dst, 16)
	e1 := fb.Load(fb.Add(fb.GlobalAddr(t1), fb.MulImm(i1, 4)), 0, 4)
	out := fb.Var(e1)
	fb.If(fb.And(e1, fb.Const(dl2Flag)), func() {
		blk := fb.AndImm(e1, 0xffff)
		i2 := fb.AndImm(fb.LshrImm(dst, 8), 0xff)
		off := fb.Add(fb.MulImm(blk, dl2BlockLen), fb.MulImm(i2, 4))
		out.Set(fb.Load(fb.Add(fb.GlobalAddr(t2), off), 0, 4))
	}, nil)
	fb.Ret(out.R())
	fb.Seal()

	routes := DefaultFIB(false)
	mach, err := finish("lpm-dl2", mod, func(m *interp.Machine) error {
		return buildDL2(m, t1.Addr, t2.Addr, routes)
	})
	if err != nil {
		return nil, err
	}
	return &Instance{
		Name:    "lpm-dl2",
		Mod:     mod,
		Machine: mach,
		AttackRegions: []Region{{
			Name: "dl2-stage1", Addr: t1.Addr, Size: t1.Size,
		}},
	}, nil
}

func buildDL2(m *interp.Machine, t1, t2 uint64, routes []Route) error {
	nextBlock := uint64(0)
	// Short prefixes (/16 and up) fill first-stage ranges directly.
	for l := 0; l <= 16; l++ {
		for _, r := range routes {
			if r.Len != l {
				continue
			}
			start := uint64(r.Prefix) >> 16
			count := uint64(1) << (16 - r.Len)
			for e := uint64(0); e < count; e++ {
				m.Mem.Write(t1+(start+e)*4, uint64(r.Port), 4)
			}
		}
	}
	// Longer prefixes allocate (or reuse) a second-stage block, inheriting
	// the covering port.
	for _, r := range routes {
		if r.Len <= 16 {
			continue
		}
		if r.Len > 24 {
			return fmt.Errorf("dl2 supports /24 max, got /%d", r.Len)
		}
		i1 := uint64(r.Prefix) >> 16
		e1 := m.Mem.Read(t1+i1*4, 4)
		var blk uint64
		if e1&dl2Flag != 0 {
			blk = e1 & 0xffff
		} else {
			if nextBlock >= dl2MaxBlocks {
				return fmt.Errorf("dl2 out of second-stage blocks")
			}
			blk = nextBlock
			nextBlock++
			for e := uint64(0); e < 256; e++ {
				m.Mem.Write(t2+blk*dl2BlockLen+e*4, e1, 4)
			}
			m.Mem.Write(t1+i1*4, dl2Flag|blk, 4)
		}
		start := (uint64(r.Prefix) >> 8) & 0xff
		count := uint64(1) << (24 - r.Len)
		for e := uint64(0); e < count; e++ {
			m.Mem.Write(t2+blk*dl2BlockLen+(start+e)*4, uint64(r.Port), 4)
		}
	}
	return nil
}
