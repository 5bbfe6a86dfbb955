// Package taint is a forward interprocedural input-taint dataflow
// analysis over internal/ir: it classifies every value, branch
// condition, and load/store address by how the adversary's packet bytes
// can influence it.
//
// The lattice is three-pointed and totally ordered:
//
//	Untainted              input-independent: byte-identical across any
//	                       two packets injected at the entry function
//	   <  TaintedLinear    depends on a trackable set of packet byte
//	                       offsets, with no hash/havoc site in between
//	   <  TaintedOpaque    input-dependent through a hash/havoc site, an
//	                       unclassifiable memory access, or a byte set
//	                       too wide to track
//
// TaintedLinear carries the byte set as provenance: "this index is
// controlled by packet bytes 26..38". The analysis is flow-sensitive
// over registers (RPO worklist fixpoints with loop widening, in the
// memregion style), flow-INsensitive over memory (one taint per memory
// region, a sound module-lifetime invariant that also covers
// cross-packet state), and interprocedural via call summaries iterated
// caller-first to a module-level fixpoint.
//
// Implicit flows are handled: a conditional branch whose condition is
// tainted taints every definition (and store, and call) in the blocks
// control-dependent on it — computed from immediate postdominators on
// the reversed CFG — and callees invoked under tainted control inherit
// that taint as their entry control. This is what makes the soundness
// contract testable: run the same module under internal/interp with two
// different packets and every Untainted-classified value must be
// byte-identical (see property_test.go).
package taint

import (
	"fmt"
	"strings"

	"castan/internal/analysis"
	"castan/internal/ir"
)

// Class is the taint lattice point, ordered Untainted < TaintedLinear <
// TaintedOpaque.
type Class uint8

// Lattice points.
const (
	Untainted Class = iota
	TaintedLinear
	TaintedOpaque
)

// String returns the class label.
func (c Class) String() string {
	switch c {
	case Untainted:
		return "untainted"
	case TaintedLinear:
		return "tainted-linear"
	case TaintedOpaque:
		return "tainted-opaque"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// MaxTrackedBytes is how many packet byte offsets a TaintedLinear byte
// set can track individually; anything reaching past this widens to
// TaintedOpaque. All catalog NFs parse within the first 42 bytes.
const MaxTrackedBytes = 256

// ByteSet is a bitset of packet byte offsets (0-based from the packet
// slot base). The zero ByteSet is empty.
type ByteSet [MaxTrackedBytes / 64]uint64

func (s *ByteSet) add(i uint64) {
	if i < MaxTrackedBytes {
		s[i/64] |= 1 << (i % 64)
	}
}

// Has reports whether offset i is in the set.
func (s ByteSet) Has(i uint64) bool {
	return i < MaxTrackedBytes && s[i/64]&(1<<(i%64)) != 0
}

// Count returns the number of offsets in the set.
func (s ByteSet) Count() int {
	n := 0
	for _, w := range s {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

func (s ByteSet) union(o ByteSet) ByteSet {
	for i := range s {
		s[i] |= o[i]
	}
	return s
}

// String renders the set as compact inclusive ranges, e.g. "26-29,34".
func (s ByteSet) String() string {
	var b strings.Builder
	run := -1
	flush := func(end int) {
		if run < 0 {
			return
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		if run == end {
			fmt.Fprintf(&b, "%d", run)
		} else {
			fmt.Fprintf(&b, "%d-%d", run, end)
		}
		run = -1
	}
	for i := 0; i < MaxTrackedBytes; i++ {
		if s.Has(uint64(i)) {
			if run < 0 {
				run = i
			}
		} else {
			flush(i - 1)
		}
	}
	flush(MaxTrackedBytes - 1)
	return b.String()
}

// Taint is one lattice value: a class plus, for TaintedLinear, the
// packet byte set it depends on. The zero Taint is Untainted, and
// values are canonical (non-Linear classes carry an empty set), so ==
// is lattice equality.
type Taint struct {
	Class Class
	Bytes ByteSet
}

// Opaque returns the ⊤ value.
func Opaque() Taint { return Taint{Class: TaintedOpaque} }

// PacketBytes returns the TaintedLinear value for the inclusive packet
// byte offset range [lo, hi], or TaintedOpaque when the range runs past
// MaxTrackedBytes.
func PacketBytes(lo, hi uint64) Taint {
	if hi >= MaxTrackedBytes || lo > hi {
		return Opaque()
	}
	t := Taint{Class: TaintedLinear}
	for i := lo; i <= hi; i++ {
		t.Bytes.add(i)
	}
	return t
}

// Tainted reports whether the value is above Untainted.
func (t Taint) Tainted() bool { return t.Class != Untainted }

// String renders the value for diagnostics.
func (t Taint) String() string {
	if t.Class == TaintedLinear {
		return "tainted-linear{" + t.Bytes.String() + "}"
	}
	return t.Class.String()
}

// join is the lattice join: class max, byte sets unioned at Linear.
func join(a, b Taint) Taint {
	c := a.Class
	if b.Class > c {
		c = b.Class
	}
	switch c {
	case Untainted:
		return Taint{}
	case TaintedOpaque:
		return Opaque()
	}
	return Taint{Class: TaintedLinear, Bytes: a.Bytes.union(b.Bytes)}
}

func join3(a, b, c Taint) Taint { return join(join(a, b), c) }

// widen accelerates loop fixpoints: a byte set still growing after
// analysis.WidenAfter re-joins jumps straight to TaintedOpaque (class changes
// need no widening — the class chain has height two).
func widen(prev, next Taint) Taint {
	if prev.Class == TaintedLinear && next.Class == TaintedLinear && next != prev {
		return Opaque()
	}
	return next
}

// InstrTaint is the per-instruction classification.
type InstrTaint struct {
	// Val is the taint of the value the instruction defines; for
	// OpCondBr the branch condition, for OpStore the stored value, for
	// OpRet the returned value.
	Val Taint
	// Addr is the taint of the address operand of a load, store, or
	// havoc key read (Untainted for other opcodes).
	Addr Taint
	// Ctl is the control taint of the enclosing block: the join of the
	// branch conditions this instruction's execution depends on.
	Ctl Taint
}

// Config tunes a Run.
type Config struct {
	// EntryHints names the root functions the input enters through and
	// the taint of their parameters. Only functions reachable from a
	// hinted root are analyzed; everything else reports TaintedOpaque.
	EntryHints map[string][]Taint
}

// NFEntryTaints returns the hints for the repository's NF calling
// convention: nf_process(pktAddr, pktLen) receives the (fixed) packet
// slot base and a frame length the harness holds constant per run. The
// adversary controls the packet *bytes*; taint is relative to that.
func NFEntryTaints() map[string][]Taint {
	return map[string][]Taint{
		"nf_process": {{}, {}},
	}
}

// regionKey identifies one flow-insensitive memory taint bucket.
type regionKey struct {
	kind   analysis.RegionKind
	global *ir.Global
	site   string
}

var packetKey = regionKey{kind: analysis.RegionPacket}

// Analysis is the module-level taint solution.
type Analysis struct {
	mf *analysis.ModuleFacts

	// Entries lists the analyzed root functions, sorted.
	Entries []string
	// Rounds is how many module-level fixpoint rounds ran.
	Rounds int
	// Capped reports whether any fixpoint hit its iteration cap and
	// degraded to TaintedOpaque (never on well-formed NF modules).
	Capped bool

	instr     map[*ir.Instr]InstrTaint
	accessOf  map[*ir.Instr]*analysis.Access
	keyReadOf map[*ir.Instr]*analysis.Access
	params    map[*ir.Func][]Taint
	rets      map[*ir.Func]Taint
	entryCtl  map[*ir.Func]Taint
	mem       map[regionKey]Taint
	// unknown is the bucket for stores the memregion pass could not
	// prove in-extent of a known region: they may land anywhere, so
	// every load joins this.
	unknown Taint
	// heapCursor is the taint of the bump allocator position: an alloc
	// under tainted control (or of tainted size) makes every later
	// allocation address input-dependent.
	heapCursor Taint

	order []*ir.Func
	pdoms map[*ir.Func][]int
}

// maxRounds caps the module-level fixpoint; the lattice is finite so
// this only triggers on pathological inputs, degrading soundly to ⊤.
const maxRounds = 48

// maxCtlIters caps the per-function control-taint iteration.
const maxCtlIters = 16

// Run computes the taint solution for a module. The ModuleFacts and
// MemRegions must come from the same module.
func Run(mf *analysis.ModuleFacts, mr *analysis.MemRegions, cfg Config) *Analysis {
	a := &Analysis{
		mf:        mf,
		instr:     map[*ir.Instr]InstrTaint{},
		accessOf:  map[*ir.Instr]*analysis.Access{},
		keyReadOf: map[*ir.Instr]*analysis.Access{},
		rets:      map[*ir.Func]Taint{},
		entryCtl:  map[*ir.Func]Taint{},
		mem:       map[regionKey]Taint{},
		pdoms:     map[*ir.Func][]int{},
	}
	for i := range mr.Accesses {
		acc := &mr.Accesses[i]
		a.accessOf[acc.Block.Instrs[acc.InstrIdx]] = acc
	}
	for i := range mr.KeyReads {
		acc := &mr.KeyReads[i]
		a.keyReadOf[acc.Block.Instrs[acc.InstrIdx]] = acc
	}

	// Roots are the hinted functions present in the module; parameters
	// the hints do not cover are opaque.
	a.Entries, a.params, a.order = analysis.HintedOrder(mf, cfg.EntryHints, Opaque())

	for a.Rounds = 1; ; a.Rounds++ {
		changed := false
		for _, f := range a.order {
			if a.analyzeFunc(f) {
				changed = true
			}
		}
		if !changed {
			break
		}
		if a.Rounds >= maxRounds {
			a.degradeToTop()
			for _, f := range a.order {
				a.analyzeFunc(f)
			}
			break
		}
	}
	return a
}

// degradeToTop forces every interprocedural fact to ⊤ so one final
// recording round yields a sound (if useless) solution.
func (a *Analysis) degradeToTop() {
	a.Capped = true
	a.unknown = Opaque()
	a.heapCursor = Opaque()
	for k := range a.mem {
		a.mem[k] = Opaque()
	}
	for _, f := range a.order {
		ps := a.params[f]
		if ps == nil {
			ps = make([]Taint, f.NumParams)
			a.params[f] = ps
		}
		for i := range ps {
			ps[i] = Opaque()
		}
		a.rets[f] = Opaque()
		a.entryCtl[f] = Opaque()
	}
}

// analyzeFunc runs the per-function fixpoint — register dataflow
// alternated with control-taint recomputation — then a recording pass
// that classifies instructions and joins facts into the module state.
// It reports whether any module-level fact grew.
func (a *Analysis) analyzeFunc(f *ir.Func) bool {
	fa := a.mf.Funcs[f]
	n := len(f.Blocks)
	base := a.entryCtl[f]
	ctl := make([]Taint, n)
	for i := range ctl {
		ctl[i] = base
	}
	pd, ok := a.pdoms[f]
	if !ok {
		pd = analysis.Postdoms(f)
		a.pdoms[f] = pd
	}

	var in [][]Taint
	for iter := 0; ; iter++ {
		in = a.regFixpoint(f, fa, ctl)
		next := a.ctlFrom(f, pd, in, base)
		if taintsEqual(next, ctl) {
			break
		}
		ctl = next
		if iter >= maxCtlIters {
			a.Capped = true
			for i := range ctl {
				ctl[i] = Opaque()
			}
			in = a.regFixpoint(f, fa, ctl)
			break
		}
	}

	changed := false
	for _, b := range f.Blocks {
		if in[b.Index] == nil {
			continue // unreachable
		}
		state := cloneTaints(in[b.Index])
		if a.execBlock(f, b, state, ctl[b.Index], true) {
			changed = true
		}
	}
	return changed
}

// regFixpoint solves the flow-sensitive register taint with the given
// per-block control taints, returning per-block entry states (nil for
// unreachable blocks).
func (a *Analysis) regFixpoint(f *ir.Func, fa *analysis.Facts, ctl []Taint) [][]Taint {
	entryState := make([]Taint, f.NumRegs)
	copy(entryState, a.params[f])
	return analysis.RegFixpoint(fa, entryState, func(b *ir.Block, state []Taint) {
		a.execBlock(f, b, state, ctl[b.Index], false)
	}, join, widen)
}

// execBlock abstractly executes one block, mutating state. When record
// is set this is the post-fixpoint pass: instruction classifications
// are written and call/store/ret facts joined into the module state;
// the return value reports whether any module-level fact grew.
func (a *Analysis) execBlock(f *ir.Func, b *ir.Block, state []Taint, ctl Taint, record bool) bool {
	changed := false
	get := func(r ir.Reg) Taint {
		if r == ir.NoReg {
			return Taint{}
		}
		return state[r]
	}
	// Every definition joins the block's control taint: if the input
	// decides whether this instruction runs, it decides the register's
	// value at the join point.
	set := func(r ir.Reg, t Taint) {
		if r != ir.NoReg {
			state[r] = join(t, ctl)
		}
	}
	for _, in := range b.Instrs {
		var it InstrTaint
		it.Ctl = ctl
		switch in.Op {
		case ir.OpConst:
			set(in.Dst, Taint{})
		case ir.OpMov:
			set(in.Dst, get(in.A))
		case ir.OpBin:
			set(in.Dst, join(get(in.A), get(in.B)))
		case ir.OpCmp:
			set(in.Dst, join(get(in.A), get(in.B)))
		case ir.OpSelect:
			set(in.Dst, join3(get(in.A), get(in.B), get(in.C)))
		case ir.OpLoad:
			it.Addr = get(in.A)
			set(in.Dst, join(a.loadContent(a.accessOf[in]), it.Addr))
		case ir.OpStore:
			it.Addr = get(in.A)
			it.Val = get(in.B)
			if record {
				if a.storeTo(a.accessOf[in], join3(it.Val, it.Addr, ctl)) {
					changed = true
				}
			}
		case ir.OpAlloc:
			set(in.Dst, join(a.heapCursor, get(in.A)))
			if record {
				if a.raise(&a.heapCursor, join(get(in.A), ctl)) {
					changed = true
				}
			}
		case ir.OpHavoc:
			it.Addr = join3(a.loadContent(a.keyReadOf[in]), get(in.A), ctl)
			// The hash of a fixed key is a constant; the hash of
			// anything input-influenced is TaintedOpaque — never
			// Linear, because the havoc output scrambles whatever
			// byte-set structure the key had.
			if it.Addr.Tainted() {
				state[in.Dst] = Opaque()
			} else {
				state[in.Dst] = Taint{}
			}
		case ir.OpCall:
			if record {
				ps := a.params[in.Callee]
				if ps == nil {
					ps = make([]Taint, in.Callee.NumParams)
					a.params[in.Callee] = ps
				}
				for i, arg := range in.Args {
					if i < len(ps) {
						if a.raise(&ps[i], get(arg)) {
							changed = true
						}
					}
				}
				if raiseMap(a.entryCtl, in.Callee, ctl) {
					changed = true
				}
			}
			set(in.Dst, a.rets[in.Callee])
		case ir.OpRet:
			it.Val = get(in.A)
			if record {
				if raiseMap(a.rets, f, join(it.Val, ctl)) {
					changed = true
				}
			}
		case ir.OpCondBr:
			it.Val = get(in.A)
		case ir.OpBr:
			// no effect
		}
		if d := in.Def(); d != ir.NoReg {
			it.Val = state[d]
		}
		if record {
			a.instr[in] = it
		}
	}
	return changed
}

// raise joins t into *dst, reporting growth.
func (a *Analysis) raise(dst *Taint, t Taint) bool {
	j := join(*dst, t)
	if j != *dst {
		*dst = j
		return true
	}
	return false
}

// raiseMap joins t into m[f] (map entries are not addressable),
// reporting growth.
func raiseMap(m map[*ir.Func]Taint, f *ir.Func, t Taint) bool {
	j := join(m[f], t)
	if j != m[f] {
		m[f] = j
		return true
	}
	return false
}

// loadContent returns the taint of the bytes a classified access reads:
// the region's store bucket, plus — for the packet slot — the input
// bytes themselves, plus whatever unprovable stores may have landed
// there. Accesses that may escape (or address no provable region, or a
// region of unknown extent) could read anything, including the packet:
// TaintedOpaque.
func (a *Analysis) loadContent(acc *analysis.Access) Taint {
	if acc == nil || acc.Region == nil ||
		acc.Class != analysis.AccessInExtent || acc.Region.Extent == 0 {
		return Opaque()
	}
	t := a.unknown
	switch acc.Region.Kind {
	case analysis.RegionPacket:
		end := acc.Hi + uint64(acc.Size)
		if end < acc.Hi { // wrapped
			return Opaque()
		}
		t = join(t, PacketBytes(acc.Lo, end-1))
		t = join(t, a.mem[packetKey])
	case analysis.RegionGlobal:
		t = join(t, a.mem[regionKey{kind: analysis.RegionGlobal, global: acc.Region.Global}])
	case analysis.RegionHeap:
		t = join(t, a.mem[regionKey{kind: analysis.RegionHeap, site: acc.Region.Site}])
	}
	return t
}

// storeTo joins t into the store's region bucket; stores that may
// escape a region (or address none, or one of unknown extent) can land
// anywhere and poison the unknown bucket every load joins.
func (a *Analysis) storeTo(acc *analysis.Access, t Taint) bool {
	if acc == nil || acc.Region == nil ||
		acc.Class != analysis.AccessInExtent || acc.Region.Extent == 0 {
		return a.raise(&a.unknown, t)
	}
	var k regionKey
	switch acc.Region.Kind {
	case analysis.RegionPacket:
		k = packetKey
	case analysis.RegionGlobal:
		k = regionKey{kind: analysis.RegionGlobal, global: acc.Region.Global}
	case analysis.RegionHeap:
		k = regionKey{kind: analysis.RegionHeap, site: acc.Region.Site}
	}
	j := join(a.mem[k], t)
	if j != a.mem[k] {
		a.mem[k] = j
		return true
	}
	return false
}

// ctlFrom recomputes per-block control taints from the current register
// solution: each conditional branch with a tainted condition taints the
// blocks control-dependent on it (reachable from its successors without
// passing its immediate postdominator).
func (a *Analysis) ctlFrom(f *ir.Func, pd []int, in [][]Taint, base Taint) []Taint {
	n := len(f.Blocks)
	ctl := make([]Taint, n)
	for i := range ctl {
		ctl[i] = base
	}
	for _, b := range f.Blocks {
		if in[b.Index] == nil {
			continue
		}
		term := b.Terminator()
		if term == nil || term.Op != ir.OpCondBr {
			continue
		}
		state := cloneTaints(in[b.Index])
		// Control taint of b itself is already folded into the defs the
		// condition was computed from; execute with the current solution
		// to read the condition's taint at the terminator.
		a.execBlock(f, b, state, ctl[b.Index], false)
		condT := Taint{}
		if term.A != ir.NoReg {
			condT = state[term.A]
		}
		if !condT.Tainted() {
			continue
		}
		for _, bi := range analysis.CtlRegion(f, b, pd[b.Index]) {
			ctl[bi] = join(ctl[bi], condT)
		}
	}
	return ctl
}

func cloneTaints(s []Taint) []Taint {
	c := make([]Taint, len(s))
	copy(c, s)
	return c
}

func taintsEqual(a, b []Taint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
