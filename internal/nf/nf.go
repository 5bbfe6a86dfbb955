// Package nf implements the network-function library the paper evaluates
// (§5.1): a NOP baseline, three IP longest-prefix-match NFs (Patricia
// trie, one-stage direct lookup, DPDK-style two-stage direct lookup), and
// a source NAT plus a stateful L4 load balancer, each over four
// associative-array implementations (chaining hash table, open-addressing
// hash ring, unbalanced binary tree, red-black tree) — 11 NFs plus NOP.
//
// Every NF is authored once, in IR, and consumed by both the testbed
// interpreter and CASTAN's symbolic execution. Control-plane setup (FIB
// population, VIP/backend configuration) happens Go-side by writing into
// the machine's memory, exactly like a control plane programming a data
// plane; the per-packet data path, including flow-state insertion, is IR.
package nf

import (
	"fmt"

	"castan/internal/interp"
	"castan/internal/ir"
	"castan/internal/nfhash"
	"castan/internal/packet"
)

// Return codes of nf_process.
const (
	RetDrop = 0
	RetOut  = 1 // forwarded toward the external side
	RetIn   = 2 // forwarded toward the internal side
)

// SymbolicPacketLen is how many packet bytes CASTAN treats as symbolic:
// Ethernet + IPv4 + L4 ports and UDP trailer (offsets 0..41).
const SymbolicPacketLen = 42

// Region is an address range of interest (e.g. a lookup table) used to
// build contention-set discovery pools.
type Region struct {
	Name string
	Addr uint64
	Size uint64
}

// HashUse describes one havocable hash site of an NF, with the tailored
// key space CASTAN should build a rainbow table over.
type HashUse struct {
	HashID int
	Bits   int
	Fn     func([]byte) uint64
	Space  nfhash.KeySpace
}

// Instance is a fully built NF: module plus a machine whose memory holds
// the populated tables.
type Instance struct {
	Name string
	Mod  *ir.Module
	// Machine is the set-up interpreter machine (tables populated). The
	// testbed runs packets on it; CASTAN snapshots its memory as the
	// symbolic base.
	Machine *interp.Machine
	// AttackRegions are the memory regions worth contending on.
	AttackRegions []Region
	// Hashes lists havocable hash sites (empty for hash-free NFs).
	Hashes []HashUse
	// Manual generates the hand-crafted adversarial workload (§5's
	// "Manual"), or nil when the paper crafted none for this NF.
	Manual func(n int) [][]byte
}

// Builder constructs a fresh Instance.
type Builder func() (*Instance, error)

// Catalog maps NF names to builders, in the paper's order.
var Catalog = map[string]Builder{
	"nop":        NewNOP,
	"lpm-trie":   NewLPMTrie,
	"lpm-dl1":    NewLPMDirect1,
	"lpm-dl2":    NewLPMDirect2,
	"nat-chain":  func() (*Instance, error) { return newFlowNF("nat", "chain") },
	"nat-ring":   func() (*Instance, error) { return newFlowNF("nat", "ring") },
	"nat-ubtree": func() (*Instance, error) { return newFlowNF("nat", "ubtree") },
	"nat-rbtree": func() (*Instance, error) { return newFlowNF("nat", "rbtree") },
	"lb-chain":   func() (*Instance, error) { return newFlowNF("lb", "chain") },
	"lb-ring":    func() (*Instance, error) { return newFlowNF("lb", "ring") },
	"lb-ubtree":  func() (*Instance, error) { return newFlowNF("lb", "ubtree") },
	"lb-rbtree":  func() (*Instance, error) { return newFlowNF("lb", "rbtree") },
}

// Names lists the catalog in the paper's presentation order.
var Names = []string{
	"nop",
	"lpm-dl1", "lpm-dl2", "lpm-trie",
	"lb-ubtree", "nat-ubtree", "lb-rbtree", "nat-rbtree",
	"nat-chain", "lb-chain", "nat-ring", "lb-ring",
}

// PaperPackets is the paper's Table 4 workload sizes per NF.
var PaperPackets = map[string]int{
	"lb-chain":   30,
	"lb-ring":    40,
	"lb-rbtree":  30,
	"lb-ubtree":  30,
	"lpm-trie":   30,
	"lpm-dl1":    40,
	"lpm-dl2":    40,
	"nat-chain":  30,
	"nat-ring":   40,
	"nat-rbtree": 35,
	"nat-ubtree": 50,
}

// New builds the named NF.
func New(name string) (*Instance, error) {
	b, ok := Catalog[name]
	if !ok {
		return nil, fmt.Errorf("nf: unknown NF %q", name)
	}
	return b()
}

// Process runs one frame through the instance's machine, returning the
// NF's action code.
func (i *Instance) Process(frame []byte) (uint64, error) {
	i.Machine.Mem.WriteBytes(ir.PacketBase, frame)
	return i.Machine.Call("nf_process", ir.PacketBase, uint64(len(frame)))
}

// finish validates and wraps a built module+machine.
func finish(name string, mod *ir.Module, setup func(m *interp.Machine) error) (*interp.Machine, error) {
	if err := mod.Validate(); err != nil {
		return nil, fmt.Errorf("nf %s: %w", name, err)
	}
	mach := interp.NewMachine(mod)
	if setup != nil {
		if err := setup(mach); err != nil {
			return nil, fmt.Errorf("nf %s setup: %w", name, err)
		}
	}
	return mach, nil
}

// NewNOP builds the baseline NF: parse nothing, forward everything. Its
// cost is the floor every latency measurement is compared against.
func NewNOP() (*Instance, error) {
	mod := ir.NewModule("nop")
	mod.Layout()
	fb := mod.NewFunc("nf_process", 2)
	pkt := fb.Param(0)
	// Touch the Ethernet header (the NIC/driver does at least this much)
	// and forward.
	et := fb.Load(pkt, packet.OffEtherType, 2)
	_ = et
	fb.RetImm(RetOut)
	fb.Seal()
	mach, err := finish("nop", mod, nil)
	if err != nil {
		return nil, err
	}
	return &Instance{Name: "nop", Mod: mod, Machine: mach}, nil
}

// emitIPv4Guard emits the common "is this an IPv4 packet" check; on
// failure the function returns RetDrop. Returns the register holding the
// packet base for convenience.
func emitIPv4Guard(fb *ir.FuncBuilder, pkt ir.Reg) {
	et := fb.Load(pkt, packet.OffEtherType, 2)
	fb.If(fb.CmpNeImm(et, uint64(packet.EtherTypeIPv4)), func() {
		fb.RetImm(RetDrop)
	}, nil)
}

// emitL4Guard drops anything that is not TCP or UDP, returning the proto
// register.
func emitL4Guard(fb *ir.FuncBuilder, pkt ir.Reg) ir.Reg {
	proto := fb.Load(pkt, packet.OffIPProto, 1)
	isTCP := fb.CmpEqImm(proto, uint64(packet.ProtoTCP))
	isUDP := fb.CmpEqImm(proto, uint64(packet.ProtoUDP))
	fb.If(fb.Or(isTCP, isUDP), nil, func() {
		fb.RetImm(RetDrop)
	})
	return proto
}
