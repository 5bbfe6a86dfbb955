package nf

import (
	"testing"

	"castan/internal/ir"
	"castan/internal/packet"
	"castan/internal/stats"
)

func build(t *testing.T, name string) *Instance {
	t.Helper()
	inst, err := New(name)
	if err != nil {
		t.Fatalf("New(%s): %v", name, err)
	}
	return inst
}

func TestCatalogBuildsEverything(t *testing.T) {
	for _, name := range Names {
		inst := build(t, name)
		if inst.Mod.Funcs["nf_process"] == nil {
			t.Errorf("%s: no nf_process", name)
		}
	}
	if _, err := New("bogus"); err == nil {
		t.Error("unknown NF accepted")
	}
}

func TestNOPForwardsEverything(t *testing.T) {
	inst := build(t, "nop")
	out, err := inst.Process(packet.Build(packet.Spec{SrcIP: 1, DstIP: 2}))
	if err != nil || out != RetOut {
		t.Errorf("nop = %d, %v", out, err)
	}
}

// randomFlows produces n distinct UDP flow frames suited to the NF kind.
func randomFlows(kind string, n int, seed uint64) [][]byte {
	rng := stats.NewRNG(seed)
	frames := make([][]byte, 0, n)
	seen := map[packet.FiveTuple]bool{}
	for len(frames) < n {
		spec := packet.Spec{Proto: packet.ProtoUDP}
		switch kind {
		case "nat":
			spec.SrcIP = NATInternalNet | rng.Uint32()&0x00ffffff
			spec.DstIP = 0x08080000 | rng.Uint32()&0xffff
			spec.SrcPort = uint16(rng.Intn(60000) + 1)
			spec.DstPort = uint16(rng.Intn(60000) + 1)
		case "lb":
			spec.SrcIP = rng.Uint32() | 0x40000000 // keep outside 10/8 and backends
			spec.DstIP = LBVIP
			spec.SrcPort = uint16(rng.Intn(60000) + 1)
			spec.DstPort = 80
		default: // lpm
			spec.SrcIP = rng.Uint32()
			spec.DstIP = rng.Uint32()
			if rng.Intn(2) == 0 {
				// Half the traffic inside the FIB's covered space.
				spec.DstIP = (10+rng.Uint32()%8)<<24 | rng.Uint32()&0x00ffffff
			}
			spec.SrcPort, spec.DstPort = 1000, 2000
		}
		fr := packet.Build(spec)
		tup, _ := packet.Parse(fr)
		if seen[tup.Tuple()] {
			continue
		}
		seen[tup.Tuple()] = true
		frames = append(frames, fr)
	}
	return frames
}

func TestLPMDifferential(t *testing.T) {
	cases := []struct {
		name   string
		with32 bool
	}{
		{"lpm-trie", true},
		{"lpm-dl1", false},
		{"lpm-dl2", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			inst := build(t, c.name)
			ref := NewNativeLPM(c.with32)
			for i, fr := range randomFlows("lpm", 400, 42) {
				want := ref.Process(fr)
				got, err := inst.Process(fr)
				if err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				if got != want {
					p, _ := packet.Parse(fr)
					t.Fatalf("frame %d dst=%v: got port %d, want %d", i, p.IP.DstAddr(), got, want)
				}
			}
			// The most specific routes must resolve exactly.
			routes := DefaultFIB(c.with32)
			for _, dst := range MostSpecificAddrs(routes) {
				fr := packet.Build(packet.Spec{SrcIP: 1, DstIP: dst, SrcPort: 9, DstPort: 9})
				want := ref.Process(fr)
				got, _ := inst.Process(fr)
				if got != want || got == 0 {
					t.Errorf("specific dst %08x: got %d, want %d", dst, got, want)
				}
			}
		})
	}
}

func TestNATDifferentialAllTables(t *testing.T) {
	for _, table := range []string{"chain", "ring", "ubtree", "rbtree"} {
		t.Run(table, func(t *testing.T) {
			inst := build(t, "nat-"+table)
			ref := NewNativeNAT()
			flows := randomFlows("nat", 120, 7)
			// Outbound: each flow twice (miss then hit), interleaved.
			var sequence [][]byte
			for _, f := range flows {
				sequence = append(sequence, f, f)
			}
			var translated [][]byte
			for i, fr := range sequence {
				mine := append([]byte(nil), fr...)
				theirs := append([]byte(nil), fr...)
				inst.Machine.Mem.WriteBytes(ir.PacketBase, mine)
				got, err := inst.Machine.Call("nf_process", ir.PacketBase, uint64(len(mine)))
				if err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				inst.Machine.Mem.ReadBytes(ir.PacketBase, mine)
				want := ref.Process(theirs)
				if got != want {
					t.Fatalf("frame %d: action %d, want %d", i, got, want)
				}
				for b := 0; b < len(mine); b++ {
					if mine[b] != theirs[b] {
						t.Fatalf("frame %d rewrite mismatch at byte %d: %02x vs %02x", i, b, mine[b], theirs[b])
					}
				}
				translated = append(translated, mine)
			}
			// Return direction: reverse each translated packet.
			for i, fr := range translated {
				p, err := packet.Parse(fr)
				if err != nil {
					t.Fatalf("parse translated: %v", err)
				}
				back := packet.FromTuple(p.Tuple().Reverse())
				mine := append([]byte(nil), back...)
				theirs := append([]byte(nil), back...)
				inst.Machine.Mem.WriteBytes(ir.PacketBase, mine)
				got, err := inst.Machine.Call("nf_process", ir.PacketBase, uint64(len(mine)))
				if err != nil {
					t.Fatalf("return frame %d: %v", i, err)
				}
				inst.Machine.Mem.ReadBytes(ir.PacketBase, mine)
				want := ref.Process(theirs)
				if got != want || got != RetIn {
					t.Fatalf("return frame %d: action %d, want %d (RetIn)", i, got, want)
				}
				for b := 0; b < len(mine); b++ {
					if mine[b] != theirs[b] {
						t.Fatalf("return frame %d rewrite mismatch at byte %d", i, b)
					}
				}
			}
		})
	}
}

func TestLBDifferentialAllTables(t *testing.T) {
	for _, table := range []string{"chain", "ring", "ubtree", "rbtree"} {
		t.Run(table, func(t *testing.T) {
			inst := build(t, "lb-"+table)
			ref := NewNativeLB()
			flows := randomFlows("lb", 120, 11)
			var sequence [][]byte
			for _, f := range flows {
				sequence = append(sequence, f, f) // miss then hit
			}
			for i, fr := range sequence {
				mine := append([]byte(nil), fr...)
				theirs := append([]byte(nil), fr...)
				inst.Machine.Mem.WriteBytes(ir.PacketBase, mine)
				got, err := inst.Machine.Call("nf_process", ir.PacketBase, uint64(len(mine)))
				if err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				inst.Machine.Mem.ReadBytes(ir.PacketBase, mine)
				want := ref.Process(theirs)
				if got != want {
					t.Fatalf("frame %d: action %d, want %d", i, got, want)
				}
				for b := 0; b < len(mine); b++ {
					if mine[b] != theirs[b] {
						t.Fatalf("frame %d rewrite mismatch at byte %d: %02x vs %02x", i, b, mine[b], theirs[b])
					}
				}
			}
			// Same flow must stick to the same backend.
			fr := flows[0]
			inst.Machine.Mem.WriteBytes(ir.PacketBase, fr)
			if _, err := inst.Machine.Call("nf_process", ir.PacketBase, uint64(len(fr))); err != nil {
				t.Fatal(err)
			}
			var first [4]byte
			inst.Machine.Mem.ReadBytes(ir.PacketBase+uint64(packet.OffIPDst), first[:])
			inst.Machine.Mem.WriteBytes(ir.PacketBase, fr)
			if _, err := inst.Machine.Call("nf_process", ir.PacketBase, uint64(len(fr))); err != nil {
				t.Fatal(err)
			}
			var second [4]byte
			inst.Machine.Mem.ReadBytes(ir.PacketBase+uint64(packet.OffIPDst), second[:])
			if first != second {
				t.Error("flow not pinned to one backend")
			}
		})
	}
}

func TestNonIPAndNonL4Dropped(t *testing.T) {
	for _, name := range []string{"lpm-trie", "nat-chain", "lb-ring"} {
		inst := build(t, name)
		fr := packet.Build(packet.Spec{SrcIP: NATInternalNet | 5, DstIP: LBVIP, SrcPort: 1, DstPort: 80})
		fr[packet.OffEtherType] = 0x86 // not IPv4
		out, err := inst.Process(fr)
		if err != nil || out != RetDrop {
			t.Errorf("%s non-IP: %d, %v", name, out, err)
		}
	}
	for _, name := range []string{"nat-ubtree", "lb-rbtree"} {
		inst := build(t, name)
		fr := packet.Build(packet.Spec{SrcIP: NATInternalNet | 5, DstIP: LBVIP, SrcPort: 1, DstPort: 80})
		fr[packet.OffIPProto] = byte(packet.ProtoICMP)
		out, err := inst.Process(fr)
		if err != nil || out != RetDrop {
			t.Errorf("%s ICMP: %d, %v", name, out, err)
		}
	}
}

func TestManualWorkloadsSkewTrees(t *testing.T) {
	// The manual skew workload must degenerate the unbalanced tree: after
	// inserting n ordered flows, looking up the last one costs ~n node
	// visits. We proxy node visits via interpreter instruction counts.
	inst := build(t, "nat-ubtree")
	frames := inst.Manual(40)
	if len(frames) != 40 {
		t.Fatalf("manual frames = %d", len(frames))
	}
	for _, fr := range frames {
		if _, err := inst.Process(fr); err != nil {
			t.Fatal(err)
		}
	}
	countInstrs := func(fr []byte) uint64 {
		var n uint64
		inst.Machine.Hooks.OnInstr = func(_ *ir.Func, _ *ir.Instr) { n++ }
		defer func() { inst.Machine.Hooks.OnInstr = nil }()
		if _, err := inst.Process(fr); err != nil {
			t.Fatal(err)
		}
		return n
	}
	deep := countInstrs(frames[len(frames)-1])
	shallow := countInstrs(frames[0])
	if deep < shallow+200 {
		t.Errorf("skew not visible: deep lookup %d instrs vs shallow %d", deep, shallow)
	}

	// The red-black tree must flatten the same sequence: the deepest
	// lookup should cost only logarithmically more than the shallowest.
	rb := build(t, "nat-rbtree")
	framesRB := skewWorkload("nat", 40)
	for _, fr := range framesRB {
		if _, err := rb.Process(fr); err != nil {
			t.Fatal(err)
		}
	}
	countRB := func(fr []byte) uint64 {
		var n uint64
		rb.Machine.Hooks.OnInstr = func(_ *ir.Func, _ *ir.Instr) { n++ }
		defer func() { rb.Machine.Hooks.OnInstr = nil }()
		if _, err := rb.Process(fr); err != nil {
			t.Fatal(err)
		}
		return n
	}
	worstRB := uint64(0)
	for _, fr := range framesRB {
		if c := countRB(fr); c > worstRB {
			worstRB = c
		}
	}
	if worstRB*2 > deep {
		t.Errorf("red-black lookup (%d instrs) not clearly cheaper than skewed BST (%d)", worstRB, deep)
	}
}

func TestTrieManualHitsDeepRoutes(t *testing.T) {
	inst := build(t, "lpm-trie")
	frames := inst.Manual(8)
	ref := NewNativeLPM(true)
	for i, fr := range frames {
		got, err := inst.Process(fr)
		if err != nil {
			t.Fatal(err)
		}
		if got == 0 {
			t.Errorf("manual frame %d missed the FIB", i)
		}
		if want := ref.Process(fr); got != want {
			t.Errorf("manual frame %d: %d vs reference %d", i, got, want)
		}
	}
}

func TestAttackRegionsDeclared(t *testing.T) {
	expects := map[string]bool{
		"lpm-dl1":   true,
		"lpm-dl2":   true,
		"lpm-trie":  true,
		"nat-chain": true,
		"lb-ring":   true,
		"nat-ring":  true,
	}
	for name, want := range expects {
		inst := build(t, name)
		if (len(inst.AttackRegions) > 0) != want {
			t.Errorf("%s: regions = %v", name, inst.AttackRegions)
		}
		for _, r := range inst.AttackRegions {
			if r.Size == 0 {
				t.Errorf("%s region %s empty", name, r.Name)
			}
		}
	}
	// Hash NFs expose tailored hash uses; NAT has two.
	if n := len(build(t, "nat-chain").Hashes); n != 2 {
		t.Errorf("nat-chain hashes = %d, want 2", n)
	}
	if n := len(build(t, "lb-ring").Hashes); n != 1 {
		t.Errorf("lb-ring hashes = %d, want 1", n)
	}
	for _, h := range build(t, "lb-chain").Hashes {
		if h.Space == nil || h.Fn == nil || h.Bits == 0 {
			t.Errorf("incomplete hash use: %+v", h)
		}
	}
}

func TestChainCollisionSlowsLookup(t *testing.T) {
	// Ground truth for the §5.4 attack: feed flows that share a bucket and
	// check the chain actually grows (instruction counts rise per packet).
	inst := build(t, "lb-chain")
	rng := stats.NewRNG(3)
	target := uint64(77)
	var colliders [][]byte
	for len(colliders) < 12 {
		tup := packet.FiveTuple{
			SrcIP:   rng.Uint32(),
			DstIP:   LBVIP,
			SrcPort: uint16(rng.Intn(65535) + 1),
			DstPort: 80,
			Proto:   packet.ProtoUDP,
		}
		if ChainBucketOf(tup) == target {
			colliders = append(colliders, packet.FromTuple(tup))
		}
	}
	var costs []uint64
	for _, fr := range colliders {
		var n uint64
		inst.Machine.Hooks.OnInstr = func(_ *ir.Func, _ *ir.Instr) { n++ }
		if _, err := inst.Process(fr); err != nil {
			t.Fatal(err)
		}
		inst.Machine.Hooks.OnInstr = nil
		costs = append(costs, n)
	}
	if costs[len(costs)-1] <= costs[0] {
		t.Errorf("colliding inserts did not grow lookup cost: %v", costs)
	}
}

// TestDL1TableContents checks the table setup fills route by route
// against longest-prefix match — at both edges of every route's run, just
// outside them, and on a stride that visits every page — and that filling
// it materializes exactly the pages the routes cover.
func TestDL1TableContents(t *testing.T) {
	inst := build(t, "lpm-dl1")
	routes := DefaultFIB(false)
	tbl := inst.AttackRegions[0]
	if tbl.Size != dl1Entries {
		t.Fatalf("table region is %d bytes, want %d", tbl.Size, dl1Entries)
	}
	covered := map[uint64]bool{}
	check := func(e uint64) {
		want := byte(LookupFIB(routes, uint32(e)<<(32-dl1Bits)))
		if got := inst.Machine.Mem.LoadByte(tbl.Addr + e); got != want {
			t.Fatalf("entry %#x holds port %d, longest-prefix match says %d", e, got, want)
		}
		if want != 0 {
			covered[(tbl.Addr+e)>>12] = true
		}
	}
	for e := uint64(0); e < dl1Entries; e += 13 {
		check(e)
	}
	for _, r := range routes {
		start := uint64(r.Prefix) >> (32 - dl1Bits)
		end := start + 1<<(dl1Bits-r.Len)
		for _, e := range []uint64{start - 1, start, end - 1, end} {
			check(e % dl1Entries)
		}
	}
	if got := inst.Machine.Mem.PagesTouched(); got != len(covered) {
		t.Errorf("setup materialized %d pages, routes cover %d", got, len(covered))
	}
}
