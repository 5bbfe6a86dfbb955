// Package vrange is an interprocedural value-range abstract
// interpretation over the IR: every defined value gets an interval ×
// congruence fact (v ∈ [Lo, Hi] and v ≡ Rem mod Stride) that holds on
// every concrete execution under the harness calling convention. The
// pass mirrors the taint analysis's architecture — entry hints seed the
// reachable roots, functions run caller-first with call summaries, each
// function reaches an RPO worklist fixpoint with loop widening, and a
// module-level round loop iterates until the summaries stabilize (or
// degrades to top at a hard cap).
//
// Consumers act only on the lattice's definite points: a branch whose
// condition range excludes zero (or is exactly zero) is statically
// decided, so symbex takes it concretely instead of forking and
// querying. Everything else is a plain range fact.
package vrange

import (
	"math/bits"

	"castan/internal/analysis"
	"castan/internal/ir"
)

// VRange is one value fact: an unsigned interval [Lo, Hi] (Lo <= Hi;
// wrapping results widen to the full interval rather than wrap) plus a
// congruence — Stride == 0 means the value is exactly Rem, Stride == 1
// carries no congruence information, Stride s > 1 means v ≡ Rem (mod s).
// The bottom element ("no execution reaches this value yet") is
// represented by Lo > Hi and only ever appears inside the fixpoint.
type VRange struct {
	Lo, Hi uint64
	Stride uint64
	Rem    uint64
}

// Full is the top element: any 64-bit value.
func Full() VRange { return VRange{Lo: 0, Hi: ^uint64(0), Stride: 1} }

// Single is the constant v.
func Single(v uint64) VRange { return VRange{Lo: v, Hi: v, Stride: 0, Rem: v} }

// Range is the interval [lo, hi] with no congruence information.
func Range(lo, hi uint64) VRange {
	if lo == hi {
		return Single(lo)
	}
	return VRange{Lo: lo, Hi: hi, Stride: 1}
}

func bot() VRange { return VRange{Lo: 1, Hi: 0, Stride: 1} }

// IsBot reports the bottom element (no value flows here).
func (r VRange) IsBot() bool { return r.Lo > r.Hi }

// IsFull reports the top element with no congruence information.
func (r VRange) IsFull() bool {
	return r.Lo == 0 && r.Hi == ^uint64(0) && r.Stride == 1
}

// IsSingleton reports whether the fact pins the value to one constant.
func (r VRange) IsSingleton() (uint64, bool) {
	if !r.IsBot() && r.Lo == r.Hi {
		return r.Lo, true
	}
	return 0, false
}

// Contains reports whether v satisfies both the interval and the
// congruence component. The bottom element contains nothing.
func (r VRange) Contains(v uint64) bool {
	if r.IsBot() || v < r.Lo || v > r.Hi {
		return false
	}
	switch r.Stride {
	case 0:
		return v == r.Rem
	case 1:
		return true
	default:
		return v%r.Stride == r.Rem
	}
}

// NeverZero reports whether the fact proves the value is nonzero on
// every execution.
func (r VRange) NeverZero() bool {
	if r.IsBot() {
		return false
	}
	if r.Lo > 0 {
		return true
	}
	// 0 ≡ Rem (mod s) iff Rem == 0, so a nonzero remainder excludes 0.
	return r.Stride != 1 && r.Rem != 0
}

// AlwaysZero reports whether the fact proves the value is zero on every
// execution.
func (r VRange) AlwaysZero() bool { return !r.IsBot() && r.Lo == 0 && r.Hi == 0 }

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// normalize reconciles the two components: singletons become exact, and
// the interval endpoints snap inward to the nearest congruent values.
// A contradiction between sound components cannot happen; if the snap
// empties the interval anyway, congruence is dropped rather than
// fabricating bottom.
func normalize(r VRange) VRange {
	if r.IsBot() {
		return bot()
	}
	if r.Stride == 0 {
		return VRange{Lo: r.Rem, Hi: r.Rem, Stride: 0, Rem: r.Rem}
	}
	if r.Lo == r.Hi {
		return Single(r.Lo)
	}
	if r.Stride > 1 {
		r.Rem %= r.Stride
		lo, hi := r.Lo, r.Hi
		if d := (r.Stride + r.Rem - lo%r.Stride) % r.Stride; d > 0 {
			if lo > ^uint64(0)-d {
				return Range(r.Lo, r.Hi)
			}
			lo += d
		}
		hi -= (r.Stride + hi%r.Stride - r.Rem) % r.Stride
		if lo > hi || hi > r.Hi {
			return Range(r.Lo, r.Hi)
		}
		if lo == hi {
			return Single(lo)
		}
		r.Lo, r.Hi = lo, hi
	}
	return r
}

// join is the lattice least upper bound.
func join(a, b VRange) VRange {
	if a.IsBot() {
		return b
	}
	if b.IsBot() {
		return a
	}
	out := VRange{Lo: min64(a.Lo, b.Lo), Hi: max64(a.Hi, b.Hi)}
	out.Stride, out.Rem = joinCong(a, b)
	return normalize(out)
}

// joinCong joins the congruence components: the coarsest congruence both
// sides satisfy, which is gcd(sa, sb, |ra-rb|) with stride 0 acting as
// "exact" (gcd identity).
func joinCong(a, b VRange) (uint64, uint64) {
	d := a.Rem - b.Rem
	if b.Rem > a.Rem {
		d = b.Rem - a.Rem
	}
	g := gcd(gcd(a.Stride, b.Stride), d)
	if g == 0 {
		return 0, a.Rem // both exact and equal
	}
	if g == 1 {
		return 1, 0
	}
	return g, a.Rem % g
}

// widen jumps changed interval bounds to the extremes so loop fixpoints
// terminate; the congruence component descends a divisor chain on its
// own and needs no widening.
func widen(old, next VRange) VRange {
	if old.IsBot() {
		return next
	}
	if next.IsBot() {
		return old
	}
	out := join(old, next)
	if out.Lo < old.Lo {
		out.Lo = 0
	}
	if out.Hi > old.Hi {
		out.Hi = ^uint64(0)
	}
	return normalize(out)
}

// intersect meets the interval components, keeping a's congruence (any
// value in the meet satisfies both constraint sets, and keeping one
// congruence is sound). Used only for branch refinement.
func intersect(a, b VRange) VRange {
	if a.IsBot() || b.IsBot() {
		return bot()
	}
	lo, hi := max64(a.Lo, b.Lo), min64(a.Hi, b.Hi)
	if lo > hi {
		return bot()
	}
	return normalize(VRange{Lo: lo, Hi: hi, Stride: a.Stride, Rem: a.Rem})
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

// ceilMask returns the all-ones value covering every bit position of v
// (the tightest 2^k - 1 with v <= 2^k - 1).
func ceilMask(v uint64) uint64 {
	if v == 0 {
		return 0
	}
	return ^uint64(0) >> uint(bits.LeadingZeros64(v))
}

// transferBin is the per-BinOp transfer function. Exact × exact defers
// to the IR's total concrete semantics so the abstraction can never
// disagree with the interpreter or the symbolic engine.
func transferBin(op ir.BinOp, a, b VRange) VRange {
	if a.IsBot() || b.IsBot() {
		return bot()
	}
	if va, ok := a.IsSingleton(); ok {
		if vb, ok := b.IsSingleton(); ok {
			return Single(op.Eval(va, vb))
		}
	}
	switch op {
	case ir.Add:
		lo, carryLo := bits.Add64(a.Lo, b.Lo, 0)
		hi, carryHi := bits.Add64(a.Hi, b.Hi, 0)
		s, r := addCong(a, b)
		if carryLo != 0 || carryHi != 0 {
			// Wrapped: the interval is gone, but a power-of-two stride
			// divides 2^64 and survives the wrap.
			return wrapCong(s, r)
		}
		return normalize(VRange{Lo: lo, Hi: hi, Stride: s, Rem: r})
	case ir.Sub:
		if b.Hi > a.Lo {
			s, r := subCong(a, b)
			return wrapCong(s, r)
		}
		s, r := subCong(a, b)
		return normalize(VRange{Lo: a.Lo - b.Hi, Hi: a.Hi - b.Lo, Stride: s, Rem: r})
	case ir.Mul:
		if c, ok := b.IsSingleton(); ok {
			return mulConst(a, c)
		}
		if c, ok := a.IsSingleton(); ok {
			return mulConst(b, c)
		}
		hiHi, hiLo := bits.Mul64(a.Hi, b.Hi)
		if hiHi != 0 {
			return Full()
		}
		loHi, loLo := bits.Mul64(a.Lo, b.Lo)
		_ = loHi // cannot overflow when the Hi product did not
		return Range(loLo, hiLo)
	case ir.UDiv:
		if c, ok := b.IsSingleton(); ok {
			if c == 0 {
				return Single(0) // x/0 = 0 by IR semantics
			}
			return Range(a.Lo/c, a.Hi/c)
		}
		// Divisor >= 1 shrinks, divisor 0 yields 0.
		return Range(0, a.Hi)
	case ir.URem:
		if c, ok := b.IsSingleton(); ok {
			if c == 0 {
				return a // x%0 = x by IR semantics
			}
			if a.Hi < c {
				return a // already reduced
			}
			return Range(0, c-1)
		}
		return Range(0, max64(a.Hi, b.Hi))
	case ir.And:
		out := Range(0, min64(a.Hi, b.Hi))
		// A constant mask forces the result to a multiple of its lowest
		// set bit — the alignment fact index-masking relies on.
		if c, ok := b.IsSingleton(); ok && c != 0 {
			out.Stride, out.Rem = c&^(c-1), 0
		} else if c, ok := a.IsSingleton(); ok && c != 0 {
			out.Stride, out.Rem = c&^(c-1), 0
		}
		return normalize(out)
	case ir.Or:
		return Range(max64(a.Lo, b.Lo), ceilMask(a.Hi|b.Hi))
	case ir.Xor:
		return Range(0, ceilMask(a.Hi|b.Hi))
	case ir.Shl:
		if k, ok := b.IsSingleton(); ok {
			if k >= 64 {
				return Single(0)
			}
			if a.Hi>>(64-k) != 0 {
				// Wraps; the result is still a multiple of 2^k.
				return wrapCong(uint64(1)<<k, 0)
			}
			return normalize(VRange{Lo: a.Lo << k, Hi: a.Hi << k, Stride: uint64(1) << k, Rem: 0})
		}
		return Full()
	case ir.Lshr:
		if k, ok := b.IsSingleton(); ok {
			if k >= 64 {
				return Single(0)
			}
			return Range(a.Lo>>k, a.Hi>>k)
		}
		return Range(0, a.Hi)
	}
	return Full()
}

// addCong / subCong combine congruences treating stride 0 as exact.
func addCong(a, b VRange) (uint64, uint64) {
	g := gcd(a.Stride, b.Stride)
	if g == 0 {
		return 0, a.Rem + b.Rem
	}
	if g == 1 {
		return 1, 0
	}
	return g, (a.Rem%g + b.Rem%g) % g
}

func subCong(a, b VRange) (uint64, uint64) {
	g := gcd(a.Stride, b.Stride)
	if g == 0 {
		return 0, a.Rem - b.Rem
	}
	if g == 1 {
		return 1, 0
	}
	return g, (g + a.Rem%g - b.Rem%g) % g
}

// wrapCong is the fact surviving a mod-2^64 wrap: only strides dividing
// 2^64 (powers of two) remain valid.
func wrapCong(s, r uint64) VRange {
	if s != 0 && s&(s-1) == 0 && s > 1 {
		return normalize(VRange{Lo: 0, Hi: ^uint64(0), Stride: s, Rem: r % s})
	}
	return Full()
}

// mulConst multiplies a range by a constant.
func mulConst(a VRange, c uint64) VRange {
	if c == 0 {
		return Single(0)
	}
	if c == 1 {
		return a
	}
	hiHi, hiLo := bits.Mul64(a.Hi, c)
	// x ≡ r (mod s) ⟹ x·c ≡ r·c (mod s·c); stride 1 scales to stride c.
	s, r := uint64(1), uint64(0)
	if sh, sl := bits.Mul64(max64(a.Stride, 1), c); sh == 0 {
		s, r = sl, (a.Rem*c)%sl
	}
	if hiHi != 0 {
		// Wrapped: keep a power-of-two stride if c supplies one.
		if p := c &^ (c - 1); p > 1 {
			g := p
			if s > 1 {
				g = gcd(s, p)
				if g <= 1 {
					g = p
				}
			}
			return wrapCong(g, 0)
		}
		return Full()
	}
	return normalize(VRange{Lo: a.Lo * c, Hi: hiLo, Stride: s, Rem: r})
}

// transferCmp evaluates a predicate over two ranges: a definite 0 or 1
// when the ranges decide it, [0,1] otherwise. Congruence disjointness
// (different residues modulo a common divisor) also refutes equality.
func transferCmp(p ir.Pred, a, b VRange) VRange {
	if a.IsBot() || b.IsBot() {
		return bot()
	}
	if va, ok := a.IsSingleton(); ok {
		if vb, ok := b.IsSingleton(); ok {
			return Single(p.Eval(va, vb))
		}
	}
	disjoint := a.Hi < b.Lo || b.Hi < a.Lo
	if !disjoint && a.Stride > 1 && b.Stride > 1 {
		if g := gcd(a.Stride, b.Stride); g > 1 && a.Rem%g != b.Rem%g {
			disjoint = true
		}
	}
	switch p {
	case ir.Eq:
		if disjoint {
			return Single(0)
		}
	case ir.Ne:
		if disjoint {
			return Single(1)
		}
	case ir.Ult:
		if a.Hi < b.Lo {
			return Single(1)
		}
		if a.Lo >= b.Hi {
			return Single(0)
		}
	case ir.Ule:
		if a.Hi <= b.Lo {
			return Single(1)
		}
		if a.Lo > b.Hi {
			return Single(0)
		}
	case ir.Ugt:
		if a.Lo > b.Hi {
			return Single(1)
		}
		if a.Hi <= b.Lo {
			return Single(0)
		}
	case ir.Uge:
		if a.Lo >= b.Hi {
			return Single(1)
		}
		if a.Hi < b.Lo {
			return Single(0)
		}
	}
	return Range(0, 1)
}

// loadResult is the width fact for a load: size bytes assemble to at
// most 2^(8*size) - 1.
func loadResult(size uint8) VRange {
	if size >= 8 {
		return Full()
	}
	return Range(0, uint64(1)<<(8*uint(size))-1)
}

const (
	maxRounds   = 48  // module-level fixpoint cap before degrading to top
	maxFnPasses = 512 // worklist pops per block; exceeding degrades to top
)

// Config tunes the analysis.
type Config struct {
	// EntryHints seeds parameter ranges for root functions (function
	// name -> per-parameter fact). Functions absent from the map are
	// only analyzed if reachable from a hinted root.
	EntryHints map[string][]VRange
}

// NFEntryRanges is the harness calling convention for NF modules (see
// DESIGN.md decision 7): nf_process(pktAddr = ir.PacketBase exactly,
// pktLen ∈ [0, ir.PacketSlot]). Every consumer in the repo — the
// concrete interpreter, the testbed, and the symbolic engine — calls
// the entry with the packet at the fixed base.
func NFEntryRanges() map[string][]VRange {
	return map[string][]VRange{
		"nf_process": {Single(ir.PacketBase), Range(0, ir.PacketSlot)},
	}
}

// Analysis is the result of Run.
type Analysis struct {
	// Rounds is how many module-level fixpoint rounds ran; Capped is set
	// when a fixpoint cap was hit and every fact degraded to top.
	Rounds int
	Capped bool

	overflow bool // per-function worklist cap tripped

	mf    *analysis.ModuleFacts
	cfg   Config
	order []*ir.Func

	params  map[*ir.Func][]VRange
	rets    map[*ir.Func]VRange
	instr   map[*ir.Instr]VRange // joined fact per defining instruction
	condRng map[*ir.Instr]VRange // OpCondBr -> condition range at the branch
	blockIn map[*ir.Func][][]VRange
	reached map[*ir.Func]map[int]bool // block indexes with a feasible in-edge
	pdoms   map[*ir.Func][]int
}

// Run computes value ranges for every function reachable from the
// hinted roots.
func Run(mf *analysis.ModuleFacts, cfg Config) *Analysis {
	a := &Analysis{
		mf:      mf,
		cfg:     cfg,
		rets:    map[*ir.Func]VRange{},
		instr:   map[*ir.Instr]VRange{},
		condRng: map[*ir.Instr]VRange{},
		blockIn: map[*ir.Func][][]VRange{},
		reached: map[*ir.Func]map[int]bool{},
		pdoms:   map[*ir.Func][]int{},
	}

	_, a.params, a.order = analysis.HintedOrder(mf, cfg.EntryHints, Full())
	if len(a.order) == 0 {
		return a
	}

	for a.Rounds = 1; ; a.Rounds++ {
		changed := false
		for _, f := range a.order {
			if a.analyzeFunc(f) {
				changed = true
			}
		}
		if !changed && !a.overflow {
			break
		}
		if a.overflow || a.Rounds >= maxRounds {
			a.degradeToTop()
			break
		}
	}
	a.finalPass()
	return a
}

// degradeToTop abandons precision when the module fixpoint refuses to
// settle: every fact becomes top, so consumers decide nothing.
func (a *Analysis) degradeToTop() {
	a.Capped = true
	for in := range a.instr {
		a.instr[in] = Full()
	}
	for in := range a.condRng {
		a.condRng[in] = Full()
	}
	for _, f := range a.order {
		r := map[int]bool{}
		for _, b := range f.Blocks {
			r[b.Index] = true
		}
		a.reached[f] = r
	}
}

// analyzeFunc runs the intraprocedural worklist fixpoint and reports
// whether any module-level fact (call params, return summaries, per
// instruction records) changed.
func (a *Analysis) analyzeFunc(f *ir.Func) bool {
	fa := a.mf.Funcs[f]
	ps, ok := a.params[f]
	if !ok {
		return false // no call site reached it yet this round
	}
	n := len(f.Blocks)
	in := a.blockIn[f]
	if in == nil {
		in = make([][]VRange, n)
		a.blockIn[f] = in
	}
	entryState := make([]VRange, f.NumRegs)
	zero := Single(0) // non-param registers start at zero (interp semantics)
	for i := range entryState {
		if i < len(ps) {
			entryState[i] = ps[i]
		} else {
			entryState[i] = zero
		}
	}
	visits := make([]int, n)
	entry := f.Entry()
	changedIn := func(bi int, st []VRange) bool {
		if in[bi] == nil {
			in[bi] = cloneState(st)
			return true
		}
		ch := false
		wide := visits[bi] >= analysis.WidenAfter
		for i, r := range st {
			var nr VRange
			if wide {
				nr = widen(in[bi][i], r)
			} else {
				nr = join(in[bi][i], r)
			}
			if nr != in[bi][i] {
				in[bi][i] = nr
				ch = true
			}
		}
		return ch
	}
	// Seed with the entry plus every block reached in a prior round:
	// call summaries may have changed since, altering a block's
	// transfer without touching its in-state.
	worklist := []int{entry.Index}
	queued := make([]bool, n)
	pops := make([]int, n)
	queued[entry.Index] = true
	changedIn(entry.Index, entryState)
	for bi := range in {
		if in[bi] != nil && !queued[bi] {
			queued[bi] = true
			worklist = append(worklist, bi)
		}
	}
	moduleChanged := false
	for len(worklist) > 0 {
		// Pop the block earliest in RPO for fast convergence.
		best := 0
		for i := 1; i < len(worklist); i++ {
			if fa.RPONum[worklist[i]] < fa.RPONum[worklist[best]] {
				best = i
			}
		}
		bi := worklist[best]
		worklist = append(worklist[:best], worklist[best+1:]...)
		queued[bi] = false
		pops[bi]++
		if pops[bi] > maxFnPasses {
			// Widening guarantees this cannot fire on monotone updates;
			// if it does, the run is suspect — drop all precision rather
			// than risk an unsound partial fixpoint.
			a.overflow = true
			return moduleChanged
		}
		visits[bi]++
		b := f.Blocks[bi]
		st := cloneState(in[bi])
		if a.execBlock(f, b, st, false) {
			moduleChanged = true
		}
		term := b.Terminator()
		if term == nil {
			continue
		}
		push := func(succ *ir.Block, out []VRange) {
			if changedIn(succ.Index, out) && !queued[succ.Index] {
				queued[succ.Index] = true
				worklist = append(worklist, succ.Index)
			}
		}
		switch term.Op {
		case ir.OpBr:
			push(term.Blk0, st)
		case ir.OpCondBr:
			cond := st[term.A]
			if !cond.IsBot() {
				if cond.NeverZero() {
					push(term.Blk0, refineState(st, b, term, true))
					break
				}
				if cond.AlwaysZero() {
					push(term.Blk1, refineState(st, b, term, false))
					break
				}
			}
			if t := refineState(st, b, term, true); t != nil {
				push(term.Blk0, t)
			}
			if fstate := refineState(st, b, term, false); fstate != nil {
				push(term.Blk1, fstate)
			}
		}
	}
	// Record pass with the settled in-states: joins per-instruction
	// facts and module summaries, and reports whether any changed.
	for _, bi := range rpoOrder(fa) {
		if in[bi] == nil {
			continue
		}
		st := cloneState(in[bi])
		if a.execBlock(f, f.Blocks[bi], st, true) {
			moduleChanged = true
		}
	}
	return moduleChanged
}

func rpoOrder(fa *analysis.Facts) []int {
	out := make([]int, 0, len(fa.RPO))
	for _, b := range fa.RPO {
		out = append(out, b.Index)
	}
	return out
}

func cloneState(s []VRange) []VRange {
	return append([]VRange(nil), s...)
}

// refineState narrows the branch block's out-state along one edge using
// the comparison that produced the condition, when it is the last def of
// the condition register in the block and its operands are not redefined
// afterwards. Returns nil when the refinement proves the edge dead.
func refineState(st []VRange, b *ir.Block, term *ir.Instr, takeTrue bool) []VRange {
	var cmp *ir.Instr
	for i := len(b.Instrs) - 1; i >= 0; i-- {
		in := b.Instrs[i]
		if in == term {
			continue
		}
		if in.Def() == term.A {
			if in.Op == ir.OpCmp {
				cmp = in
				// Operands must still hold the compared values.
				for j := i + 1; j < len(b.Instrs); j++ {
					d := b.Instrs[j].Def()
					if d != ir.NoReg && (d == in.A || d == in.B) {
						cmp = nil
						break
					}
				}
			}
			break
		}
	}
	if cmp == nil {
		return st
	}
	p := cmp.Pred
	if !takeTrue {
		p = negatePred(p)
	}
	a, bb := st[cmp.A], st[cmp.B]
	na, nb := refinePred(p, a, bb)
	if na.IsBot() || nb.IsBot() {
		return nil
	}
	if na == a && nb == bb {
		return st
	}
	out := cloneState(st)
	out[cmp.A], out[cmp.B] = na, nb
	return out
}

func negatePred(p ir.Pred) ir.Pred {
	switch p {
	case ir.Eq:
		return ir.Ne
	case ir.Ne:
		return ir.Eq
	case ir.Ult:
		return ir.Uge
	case ir.Ule:
		return ir.Ugt
	case ir.Ugt:
		return ir.Ule
	case ir.Uge:
		return ir.Ult
	}
	return p
}

// refinePred tightens both operand ranges under "a <p> b holds".
func refinePred(p ir.Pred, a, b VRange) (VRange, VRange) {
	switch p {
	case ir.Eq:
		return intersect(a, b), intersect(b, a)
	case ir.Ne:
		if v, ok := b.IsSingleton(); ok {
			a = excludePoint(a, v)
		}
		if v, ok := a.IsSingleton(); ok {
			b = excludePoint(b, v)
		}
		return a, b
	case ir.Ult:
		if b.Hi == 0 {
			return bot(), bot()
		}
		return intersect(a, Range(0, b.Hi-1)), intersect(b, Range(minInc(a.Lo), ^uint64(0)))
	case ir.Ule:
		return intersect(a, Range(0, b.Hi)), intersect(b, Range(a.Lo, ^uint64(0)))
	case ir.Ugt:
		if a.Hi == 0 {
			return bot(), bot()
		}
		return intersect(a, Range(minInc(b.Lo), ^uint64(0))), intersect(b, Range(0, a.Hi-1))
	case ir.Uge:
		return intersect(a, Range(b.Lo, ^uint64(0))), intersect(b, Range(0, a.Hi))
	}
	return a, b
}

func minInc(v uint64) uint64 {
	if v == ^uint64(0) {
		return v
	}
	return v + 1
}

// excludePoint trims v off an interval endpoint (interior exclusions are
// not representable).
func excludePoint(r VRange, v uint64) VRange {
	if val, ok := r.IsSingleton(); ok && val == v {
		return bot()
	}
	if r.Lo == v {
		return normalize(VRange{Lo: v + 1, Hi: r.Hi, Stride: r.Stride, Rem: r.Rem})
	}
	if r.Hi == v {
		return normalize(VRange{Lo: r.Lo, Hi: v - 1, Stride: r.Stride, Rem: r.Rem})
	}
	return r
}

// execBlock interprets one block over st. In record mode it joins the
// per-instruction facts and module summaries, reporting changes;
// otherwise it only transforms st.
func (a *Analysis) execBlock(f *ir.Func, b *ir.Block, st []VRange, record bool) bool {
	changed := false
	recordFact := func(in *ir.Instr, r VRange) {
		if !record {
			return
		}
		old, ok := a.instr[in]
		if !ok {
			a.instr[in] = r
			changed = true
			return
		}
		if nr := join(old, r); nr != old {
			a.instr[in] = nr
			changed = true
		}
	}
	get := func(r ir.Reg) VRange { return st[r] }
	set := func(in *ir.Instr, r VRange) {
		if in.Dst != ir.NoReg {
			st[in.Dst] = r
		}
		recordFact(in, r)
	}
	for _, in := range b.Instrs {
		switch in.Op {
		case ir.OpConst:
			set(in, Single(in.Imm))
		case ir.OpMov:
			set(in, get(in.A))
		case ir.OpBin:
			set(in, transferBin(in.Bin, get(in.A), get(in.B)))
		case ir.OpCmp:
			set(in, transferCmp(in.Pred, get(in.A), get(in.B)))
		case ir.OpSelect:
			c := get(in.A)
			switch {
			case c.IsBot():
				set(in, bot())
			case c.NeverZero():
				set(in, get(in.B))
			case c.AlwaysZero():
				set(in, get(in.C))
			default:
				set(in, join(get(in.B), get(in.C)))
			}
		case ir.OpLoad:
			set(in, loadResult(in.Size))
		case ir.OpStore:
			// Memory is untracked; loads already return full width.
		case ir.OpAlloc:
			// Both the interpreter and symbex bump-allocate from the heap
			// base with 64-byte alignment.
			set(in, normalize(VRange{Lo: ir.HeapBase, Hi: ^uint64(0), Stride: 64, Rem: 0}))
		case ir.OpHavoc:
			h := a.mf.Mod.Hashes[in.HashID]
			if h.Bits >= 64 {
				set(in, Full())
			} else {
				set(in, Range(0, uint64(1)<<uint(h.Bits)-1))
			}
		case ir.OpCall:
			callee := in.Callee
			args := make([]VRange, callee.NumParams)
			for i := range args {
				if i < len(in.Args) {
					args[i] = get(in.Args[i])
				} else {
					args[i] = Full()
				}
			}
			if record {
				if a.joinParams(callee, args) {
					changed = true
				}
			}
			ret, ok := a.rets[callee]
			if !ok {
				ret = bot() // callee not summarized yet: nothing returned
			}
			if in.Dst != ir.NoReg {
				st[in.Dst] = ret
			}
			recordFact(in, ret)
		case ir.OpCondBr:
			if record {
				c := get(in.A)
				old, ok := a.condRng[in]
				if !ok {
					a.condRng[in] = c
					changed = true
				} else if nr := join(old, c); nr != old {
					a.condRng[in] = nr
					changed = true
				}
			}
		case ir.OpRet:
			if record {
				r := Single(0)
				if in.A != ir.NoReg {
					r = get(in.A)
				}
				old, ok := a.rets[f]
				if !ok {
					a.rets[f] = r
					changed = true
				} else if nr := join(old, r); nr != old {
					a.rets[f] = nr
					changed = true
				}
			}
		}
	}
	return changed
}

// joinParams folds call-site argument ranges into the callee's summary.
func (a *Analysis) joinParams(callee *ir.Func, args []VRange) bool {
	ps, ok := a.params[callee]
	if !ok {
		a.params[callee] = cloneState(args)
		return true
	}
	changed := false
	for i := range ps {
		if nr := join(ps[i], args[i]); nr != ps[i] {
			ps[i] = nr
			changed = true
		}
	}
	return changed
}

// finalPass recomputes, from the settled facts, which blocks have a
// feasible in-edge — the reachability Stats counts unreachable blocks
// by.
func (a *Analysis) finalPass() {
	if a.Capped {
		return
	}
	for _, f := range a.order {
		in := a.blockIn[f]
		r := map[int]bool{}
		if in != nil {
			for bi, st := range in {
				if st != nil {
					r[bi] = true
				}
			}
		}
		a.reached[f] = r
	}
}
