package analysis

import (
	"fmt"
	"math"
	"sort"

	"castan/internal/ir"
)

// The memory-region pass classifies every load and store to the memory
// region its address can reach — a named global, the packet slot, or a
// heap allocation site — using a base-region + offset-interval
// abstraction of the register machine, and flags accesses whose offset
// interval may (or must) escape the region's extent.
//
// The abstraction is a small value lattice per register:
//
//	⊥  <  Num[lo,hi]            (plain numbers)
//	   <  Ptr(region)[lo,hi]    (region base + byte offset)
//	   <  ⊤                     (anything: unknown pointer or number)
//
// with interval arithmetic on the usual operations (adds shift pointer
// offsets, masks bound indices, multiplies scale them), a saturating
// widening on loop back edges, and an interprocedural top-down pass that
// joins call-site argument values into callee parameters (the call graph
// is acyclic by IR validation, so one pass in caller-first topological
// order suffices).

// RegionKind distinguishes the address spaces of the IR machine model.
type RegionKind uint8

// Region kinds.
const (
	RegionGlobal RegionKind = iota
	RegionPacket
	RegionHeap
)

// String returns the kind label.
func (k RegionKind) String() string {
	switch k {
	case RegionGlobal:
		return "global"
	case RegionPacket:
		return "packet"
	case RegionHeap:
		return "heap"
	}
	return fmt.Sprintf("region(%d)", uint8(k))
}

// RegionInfo identifies one abstract memory region.
type RegionInfo struct {
	Kind   RegionKind
	Global *ir.Global // when Kind == RegionGlobal
	// Extent is the region size in bytes; 0 means statically unknown
	// (heap allocations of dynamic size, or merged heap sites).
	Extent uint64
	// Site names heap allocation sites for diagnostics.
	Site string
}

// Name renders the region for diagnostics.
func (r *RegionInfo) Name() string {
	switch r.Kind {
	case RegionGlobal:
		return "global " + r.Global.Name
	case RegionPacket:
		return "packet slot"
	case RegionHeap:
		if r.Site != "" {
			return "heap alloc @" + r.Site
		}
		return "heap"
	}
	return "?"
}

type valKind uint8

const (
	kBot valKind = iota
	kNum
	kPtr
	kTop
)

// Value is one point of the abstract value lattice. The zero Value is ⊥.
type Value struct {
	kind   valKind
	region *RegionInfo // kPtr only
	lo, hi uint64      // numeric range (kNum) or byte offset range (kPtr)
}

// Top returns the ⊤ value.
func Top() Value { return Value{kind: kTop} }

// NumConst abstracts a known constant.
func NumConst(v uint64) Value { return Value{kind: kNum, lo: v, hi: v} }

// NumRange abstracts a number within [lo, hi].
func NumRange(lo, hi uint64) Value { return Value{kind: kNum, lo: lo, hi: hi} }

// PacketPtr abstracts a pointer into the packet slot at the given offset.
func PacketPtr(off uint64) Value {
	return Value{kind: kPtr, region: packetRegion, lo: off, hi: off}
}

// GlobalPtr abstracts a pointer into g at the given offset.
func GlobalPtr(g *ir.Global, off uint64) Value {
	return Value{
		kind:   kPtr,
		region: &RegionInfo{Kind: RegionGlobal, Global: g, Extent: g.Size},
		lo:     off, hi: off,
	}
}

var packetRegion = &RegionInfo{Kind: RegionPacket, Extent: ir.PacketSlot}

// IsPtr reports whether the value is a classified pointer, returning its
// region and offset interval.
func (v Value) IsPtr() (*RegionInfo, uint64, uint64, bool) {
	if v.kind == kPtr {
		return v.region, v.lo, v.hi, true
	}
	return nil, 0, 0, false
}

func (v Value) String() string {
	switch v.kind {
	case kBot:
		return "⊥"
	case kNum:
		if v.lo == v.hi {
			return fmt.Sprintf("%#x", v.lo)
		}
		return fmt.Sprintf("[%#x,%#x]", v.lo, v.hi)
	case kPtr:
		return fmt.Sprintf("%s+[%#x,%#x]", v.region.Name(), v.lo, v.hi)
	}
	return "⊤"
}

func satAdd(a, b uint64) uint64 {
	if a > math.MaxUint64-b {
		return math.MaxUint64
	}
	return a + b
}

func satMul(a, b uint64) uint64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxUint64/b {
		return math.MaxUint64
	}
	return a * b
}

// join is the lattice join. Pointers into different heap sites merge into
// a generic (extent-unknown) heap region; a pointer joined with a number
// or with a pointer into a different named region is ⊤.
func join(a, b Value) Value {
	switch {
	case a.kind == kBot:
		return b
	case b.kind == kBot:
		return a
	case a.kind == kTop || b.kind == kTop:
		return Top()
	case a.kind == kNum && b.kind == kNum:
		return NumRange(min64(a.lo, b.lo), max64(a.hi, b.hi))
	case a.kind == kPtr && b.kind == kPtr:
		if a.region == b.region {
			return Value{kind: kPtr, region: a.region, lo: min64(a.lo, b.lo), hi: max64(a.hi, b.hi)}
		}
		if a.region.Kind == RegionHeap && b.region.Kind == RegionHeap {
			return Value{kind: kPtr, region: genericHeap, lo: 0, hi: math.MaxUint64}
		}
		return Top()
	default:
		return Top()
	}
}

var genericHeap = &RegionInfo{Kind: RegionHeap}

// widen jumps growing intervals to their extreme so loop fixpoints
// terminate: any bound that moved since prev goes to 0 / MaxUint64.
func widen(prev, next Value) Value {
	if prev.kind != next.kind || prev.kind == kBot || prev.kind == kTop {
		return next
	}
	if next.kind == kPtr && prev.region != next.region {
		return next
	}
	w := next
	if next.lo < prev.lo {
		w.lo = 0
	}
	if next.hi > prev.hi {
		w.hi = math.MaxUint64
	}
	return w
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// EscapeClass classifies an access against its region's extent.
type EscapeClass uint8

// Escape classes.
const (
	// AccessUnclassified: the address abstraction could not attribute the
	// access to any region (unknown pointer).
	AccessUnclassified EscapeClass = iota
	// AccessInExtent: the whole offset interval fits inside the region.
	AccessInExtent
	// AccessMayEscape: the interval's upper end runs past the region's
	// extent — a data-dependent out-of-bounds risk.
	AccessMayEscape
	// AccessOutOfExtent: even the lowest possible offset is already past
	// the extent — a definite out-of-bounds access.
	AccessOutOfExtent
)

// String returns the class label.
func (e EscapeClass) String() string {
	switch e {
	case AccessInExtent:
		return "in-extent"
	case AccessMayEscape:
		return "may-escape"
	case AccessOutOfExtent:
		return "out-of-extent"
	}
	return "unclassified"
}

// Access is the classification of one load/store (or havoc key read).
type Access struct {
	Fn       *ir.Func
	Block    *ir.Block
	InstrIdx int
	IsStore  bool
	// Region is nil when unclassified.
	Region *RegionInfo
	// Lo, Hi bound the access's starting byte offset within the region
	// (immediate included).
	Lo, Hi uint64
	Size   uint8
	Class  EscapeClass
}

// MemRegions is the module-level result of the memory-region pass.
type MemRegions struct {
	mf *ModuleFacts
	// Accesses lists every load/store in deterministic order (function
	// name, block index, instruction index).
	Accesses []Access
	// KeyReads lists every OpHavoc key-buffer read, classified like a
	// load of the whole key. Kept separate from Accesses so footprint and
	// cache-cost consumers (which model havoc as a pure register effect)
	// are unaffected; the taint pass uses these to decide whether a hash
	// key is adversary-controlled.
	KeyReads []Access
	// Params records the joined abstract parameter values each function
	// was analyzed under.
	Params map[*ir.Func][]Value
}

// RunMemRegions runs the pass over a module. entryHints provides the
// calling convention of root functions (see Options.EntryHints); nil
// means all root parameters are unknown.
func RunMemRegions(mf *ModuleFacts, entryHints map[string][]Value) *MemRegions {
	mr := &MemRegions{mf: mf, Params: map[*ir.Func][]Value{}}

	// Caller-first topological order over the acyclic call graph, ties
	// broken by sorted name so the order is deterministic.
	order := callerFirstOrder(mf)

	for _, f := range order {
		params := mr.Params[f]
		if params == nil {
			params = make([]Value, f.NumParams)
			if hints, ok := entryHints[f.Name]; ok {
				copy(params, hints)
			}
			for i := range params {
				if params[i].kind == kBot {
					params[i] = Top()
				}
			}
			mr.Params[f] = params
		}
		mr.analyzeFunc(f, params)
	}
	return mr
}

func (mr *MemRegions) analyzeFunc(f *ir.Func, params []Value) {
	fa := mr.mf.Funcs[f]
	entryState := make([]Value, f.NumRegs)
	copy(entryState, params)

	// Distinct heap regions per allocation site, stable across the
	// fixpoint so joins of the same site stay precise.
	allocRegions := map[*ir.Instr]*RegionInfo{}

	in := RegFixpoint(fa, entryState, func(b *ir.Block, state []Value) {
		mr.execBlock(f, b, state, allocRegions, nil)
	}, join, widen)

	// Final classification pass with the converged entry states, and
	// call-site argument propagation into callee parameter joins.
	for _, b := range f.Blocks {
		if in[b.Index] == nil {
			continue // unreachable
		}
		state := cloneState(in[b.Index])
		mr.execBlock(f, b, state, allocRegions, fa)
	}
}

// execBlock abstractly executes one block, mutating state. When record is
// non-nil this is the post-fixpoint classification pass: accesses are
// recorded and call arguments joined into callee parameters.
func (mr *MemRegions) execBlock(f *ir.Func, b *ir.Block, state []Value, allocRegions map[*ir.Instr]*RegionInfo, record *Facts) {
	get := func(r ir.Reg) Value {
		if r == ir.NoReg {
			return Top()
		}
		return state[r]
	}
	set := func(r ir.Reg, v Value) {
		if r != ir.NoReg {
			state[r] = v
		}
	}
	for idx, instr := range b.Instrs {
		switch instr.Op {
		case ir.OpConst:
			set(instr.Dst, mr.constValue(instr.Imm))
		case ir.OpMov:
			set(instr.Dst, get(instr.A))
		case ir.OpBin:
			set(instr.Dst, evalBin(instr.Bin, get(instr.A), get(instr.B)))
		case ir.OpCmp:
			set(instr.Dst, NumRange(0, 1))
		case ir.OpSelect:
			set(instr.Dst, join(get(instr.B), get(instr.C)))
		case ir.OpLoad:
			if record != nil {
				mr.recordAccess(f, b, idx, false, get(instr.A), instr.Imm, instr.Size)
			}
			set(instr.Dst, loadResult(instr.Size))
		case ir.OpStore:
			if record != nil {
				mr.recordAccess(f, b, idx, true, get(instr.A), instr.Imm, instr.Size)
			}
		case ir.OpAlloc:
			reg := allocRegions[instr]
			if reg == nil {
				reg = &RegionInfo{Kind: RegionHeap, Site: instrRef(f, b, idx)}
				if sz := get(instr.A); sz.kind == kNum && sz.lo == sz.hi {
					reg.Extent = sz.lo
				}
				allocRegions[instr] = reg
			}
			set(instr.Dst, Value{kind: kPtr, region: reg})
		case ir.OpHavoc:
			if record != nil {
				mr.recordKeyRead(f, b, idx, get(instr.A), instr.Imm)
			}
			bits := 64
			if instr.HashID >= 0 && instr.HashID < len(mr.mf.Mod.Hashes) {
				bits = mr.mf.Mod.Hashes[instr.HashID].Bits
			}
			if bits >= 64 {
				set(instr.Dst, NumRange(0, math.MaxUint64))
			} else {
				set(instr.Dst, NumRange(0, 1<<uint(bits)-1))
			}
		case ir.OpCall:
			if record != nil {
				callee := instr.Callee
				ps := mr.Params[callee]
				if ps == nil {
					ps = make([]Value, callee.NumParams)
					mr.Params[callee] = ps
				}
				for i, a := range instr.Args {
					if i < len(ps) {
						ps[i] = join(ps[i], get(a))
					}
				}
			}
			set(instr.Dst, Top())
		case ir.OpBr, ir.OpCondBr, ir.OpRet:
			// no value effect
		}
	}
}

// constValue maps an immediate to the region it addresses, if any: the
// packet slot or a laid-out global. Other values — including heap-range
// numbers, which are indistinguishable from large scalars — stay plain
// numbers.
func (mr *MemRegions) constValue(imm uint64) Value {
	if imm >= ir.PacketBase && imm < ir.PacketBase+ir.PacketSlot {
		return PacketPtr(imm - ir.PacketBase)
	}
	if g := mr.globalAt(imm); g != nil {
		return GlobalPtr(g, imm-g.Addr)
	}
	return NumConst(imm)
}

func (mr *MemRegions) globalAt(addr uint64) *ir.Global {
	for _, name := range mr.globalNames() {
		g := mr.mf.Mod.Globals[name]
		if g.Addr != 0 && addr >= g.Addr && addr < g.Addr+g.Size {
			return g
		}
	}
	return nil
}

func (mr *MemRegions) globalNames() []string {
	names := make([]string, 0, len(mr.mf.Mod.Globals))
	for n := range mr.mf.Mod.Globals {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func loadResult(size uint8) Value {
	if size >= 8 {
		return NumRange(0, math.MaxUint64)
	}
	return NumRange(0, 1<<(8*uint(size))-1)
}

func evalBin(op ir.BinOp, a, b Value) Value {
	if a.kind == kBot || b.kind == kBot {
		return Value{}
	}
	aNum := a.kind == kNum
	bNum := b.kind == kNum
	switch op {
	case ir.Add:
		switch {
		case a.kind == kPtr && bNum:
			return Value{kind: kPtr, region: a.region, lo: satAdd(a.lo, b.lo), hi: satAdd(a.hi, b.hi)}
		case aNum && b.kind == kPtr:
			return Value{kind: kPtr, region: b.region, lo: satAdd(a.lo, b.lo), hi: satAdd(a.hi, b.hi)}
		case aNum && bNum:
			if satAdd(a.hi, b.hi) == math.MaxUint64 && a.hi != math.MaxUint64 && b.hi != math.MaxUint64 {
				// potential wrap: give up on bounds
				return NumRange(0, math.MaxUint64)
			}
			return NumRange(satAdd(a.lo, b.lo), satAdd(a.hi, b.hi))
		}
	case ir.Sub:
		switch {
		case a.kind == kPtr && bNum && a.lo >= b.hi:
			return Value{kind: kPtr, region: a.region, lo: a.lo - b.hi, hi: a.hi - b.lo}
		case aNum && bNum && a.lo >= b.hi:
			return NumRange(a.lo-b.hi, a.hi-b.lo)
		case aNum && bNum:
			return NumRange(0, math.MaxUint64) // may wrap
		}
	case ir.Mul:
		if aNum && bNum {
			return NumRange(satMul(a.lo, b.lo), satMul(a.hi, b.hi))
		}
	case ir.UDiv:
		if aNum && bNum {
			return NumRange(0, a.hi) // quotient never exceeds the dividend
		}
	case ir.URem:
		if aNum && bNum {
			if b.lo > 0 {
				return NumRange(0, b.hi-1)
			}
			// zero divisor yields the dividend
			return NumRange(0, max64(a.hi, satAdd(b.hi, 0)))
		}
	case ir.And:
		if aNum && bNum {
			return NumRange(0, min64(a.hi, b.hi))
		}
	case ir.Or, ir.Xor:
		if aNum && bNum {
			return NumRange(0, satAdd(a.hi, b.hi)) // x|y, x^y ≤ x+y
		}
	case ir.Shl:
		if aNum && bNum && b.lo == b.hi {
			if b.lo >= 64 {
				return NumConst(0)
			}
			sh := uint(b.lo)
			if a.hi > math.MaxUint64>>sh {
				return NumRange(0, math.MaxUint64)
			}
			return NumRange(a.lo<<sh, a.hi<<sh)
		}
		if aNum && bNum {
			return NumRange(0, math.MaxUint64)
		}
	case ir.Lshr:
		if aNum && bNum {
			if b.lo == b.hi {
				if b.lo >= 64 {
					return NumConst(0)
				}
				return NumRange(a.lo>>uint(b.lo), a.hi>>uint(b.lo))
			}
			return NumRange(0, a.hi)
		}
	}
	return Top()
}

func (mr *MemRegions) recordAccess(f *ir.Func, b *ir.Block, idx int, isStore bool, addr Value, imm uint64, size uint8) {
	acc := Access{Fn: f, Block: b, InstrIdx: idx, IsStore: isStore, Size: size}
	if reg, lo, hi, ok := addr.IsPtr(); ok {
		acc.Region = reg
		acc.Lo, acc.Hi = satAdd(lo, imm), satAdd(hi, imm)
		switch {
		case reg.Extent == 0:
			acc.Class = AccessInExtent // unknown extent: nothing to check
		case satAdd(acc.Lo, uint64(size)) > reg.Extent:
			acc.Class = AccessOutOfExtent
		case satAdd(acc.Hi, uint64(size)) > reg.Extent:
			acc.Class = AccessMayEscape
		default:
			acc.Class = AccessInExtent
		}
	} else {
		acc.Class = AccessUnclassified
	}
	mr.Accesses = append(mr.Accesses, acc)
}

// recordKeyRead classifies the keyLen-byte read an OpHavoc performs at
// its key pointer, appending to KeyReads. Size saturates at 255 bytes
// (Access.Size is a byte); real flow keys are far smaller.
func (mr *MemRegions) recordKeyRead(f *ir.Func, b *ir.Block, idx int, addr Value, keyLen uint64) {
	size := uint8(255)
	if keyLen < 255 {
		size = uint8(keyLen)
	}
	acc := Access{Fn: f, Block: b, InstrIdx: idx, Size: size}
	if reg, lo, hi, ok := addr.IsPtr(); ok {
		acc.Region = reg
		acc.Lo, acc.Hi = lo, hi
		switch {
		case reg.Extent == 0:
			acc.Class = AccessInExtent
		case satAdd(acc.Lo, keyLen) > reg.Extent:
			acc.Class = AccessOutOfExtent
		case satAdd(acc.Hi, keyLen) > reg.Extent:
			acc.Class = AccessMayEscape
		default:
			acc.Class = AccessInExtent
		}
	} else {
		acc.Class = AccessUnclassified
	}
	mr.KeyReads = append(mr.KeyReads, acc)
}

// report converts extent violations into findings.
func (mr *MemRegions) report(rep *Report) {
	for _, a := range mr.Accesses {
		kind := "load"
		if a.IsStore {
			kind = "store"
		}
		switch a.Class {
		case AccessOutOfExtent:
			rep.add(Finding{
				Pass: "memregion", Sev: SevError,
				Fn: a.Fn, Block: a.Block, InstrIdx: a.InstrIdx,
				Msg: fmt.Sprintf("%s of %d byte(s) at %s+[%#x,%#x] is out of extent (%d bytes)",
					kind, a.Size, a.Region.Name(), a.Lo, a.Hi, a.Region.Extent),
			})
		case AccessMayEscape:
			rep.add(Finding{
				Pass: "memregion", Sev: SevWarn,
				Fn: a.Fn, Block: a.Block, InstrIdx: a.InstrIdx,
				Msg: fmt.Sprintf("%s of %d byte(s) at %s+[%#x,%#x] may escape extent (%d bytes)",
					kind, a.Size, a.Region.Name(), a.Lo, a.Hi, a.Region.Extent),
			})
		}
	}
}
