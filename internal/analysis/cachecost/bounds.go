package cachecost

import (
	"castan/internal/analysis"
	"castan/internal/ir"
)

// bound is a saturating worst-case cost: ok=false means no static bound
// exists (an unbounded loop or a callee without one).
type bound struct {
	v  uint64
	ok bool
}

func satAdd(a, b uint64) uint64 {
	if s := a + b; s >= a {
		return s
	}
	return ^uint64(0)
}

func satMul(a, b uint64) uint64 {
	if a == 0 || b == 0 {
		return 0
	}
	if p := a * b; p/b == a {
		return p
	}
	return ^uint64(0)
}

func (b bound) add(o bound) bound {
	return bound{satAdd(b.v, o.v), b.ok && o.ok}
}

func maxBound(a, b bound) bound {
	if !a.ok || !b.ok {
		return bound{0, false}
	}
	if b.v > a.v {
		return b
	}
	return a
}

// instrBound prices one instruction: its opcode cost, the miss penalty
// for any memory access not proven always-hit, and — for calls — the
// callee's whole-function bound (or its acyclic bound when acyclic is
// set).
func (a *Analysis) instrBound(in *ir.Instr, acyclic bool) bound {
	c := a.cost.Op.InstrCost(in)
	switch in.Op {
	case ir.OpLoad, ir.OpStore:
		if a.class[in] != AlwaysHit {
			c = satAdd(c, a.cost.MissPenalty)
		}
	case ir.OpCall:
		cs := a.fns[in.Callee]
		if cs == nil {
			return bound{0, false}
		}
		if acyclic {
			c = satAdd(c, cs.acyclic)
		} else {
			if !cs.funcBound.ok {
				return bound{0, false}
			}
			c = satAdd(c, cs.funcBound.v)
		}
	}
	return bound{c, true}
}

// retreating reports whether edge b→s goes backwards (or self) in RPO.
// For the reducible CFGs the builder emits these are exactly the loop
// back edges; treating any retreating edge as one keeps the longest-path
// computation on a DAG regardless.
func retreating(fa *analysis.Facts, b, s *ir.Block) bool {
	return fa.RPONum[s.Index] <= fa.RPONum[b.Index]
}

// tripMult is the execution-count multiplier of a block: the product of
// (TripBound+1) over every enclosing loop — the +1 covers the header's
// final, exiting evaluation. A loop without a static trip bound makes the
// multiplier unbounded.
func tripMult(fa *analysis.Facts, b *ir.Block) bound {
	m := bound{1, true}
	for l := fa.Loops.Innermost(b); l != nil; l = l.Parent {
		if l.TripBound == 0 {
			return bound{0, false}
		}
		m = bound{satMul(m.v, l.TripBound+1), m.ok}
	}
	return m
}

// buildBounds derives the cost bounds for one function. Callees have
// already been processed (Run walks the call graph bottom-up).
func (a *Analysis) buildBounds(f *ir.Func, fc *funcCost) {
	fa := fc.facts

	// Per-block suffix arrays: suffix[b][i] bounds the cost of executing
	// instructions i..end of b once.
	acySuffix := map[*ir.Block][]bound{}
	for _, b := range fa.RPO {
		n := len(b.Instrs)
		suf := make([]bound, n+1)
		acy := make([]bound, n+1)
		suf[n] = bound{0, true}
		acy[n] = bound{0, true}
		for i := n - 1; i >= 0; i-- {
			suf[i] = a.instrBound(b.Instrs[i], false).add(suf[i+1])
			acy[i] = a.instrBound(b.Instrs[i], true).add(acy[i+1])
		}
		fc.suffix[b] = suf
		acySuffix[b] = acy

		// The per-block bound charges the whole block once per possible
		// execution: one pass times the loop trip multiplier.
		fc.blockBound[b] = suf[0]
		if mult := tripMult(fa, b); !mult.ok {
			fc.blockBound[b] = bound{0, false}
		} else if mult.v != 1 {
			bb := suf[0]
			fc.blockBound[b] = bound{satMul(bb.v, mult.v), bb.ok}
		}

		var outer *analysis.Loop
		for l := fa.Loops.Innermost(b); l != nil; l = l.Parent {
			outer = l
		}
		fc.outerLoop[b] = outer
	}

	// Longest weighted path over the back-edge-free DAG, in reverse RPO
	// (every non-retreating edge goes forward in RPO, so successors are
	// final before their predecessors). R(b) bounds the cost of the whole
	// rest of the execution starting at b — including every remaining
	// iteration of loops containing b, because b's weight already carries
	// the trip multiplier.
	acyR := map[*ir.Block]uint64{}
	for i := len(fa.RPO) - 1; i >= 0; i-- {
		b := fa.RPO[i]
		succBest := bound{0, true}
		var acyBest uint64
		for _, s := range b.Succs() {
			if retreating(fa, b, s) {
				continue
			}
			succBest = maxBound(succBest, fc.residual[s])
			if r := acyR[s]; r > acyBest {
				acyBest = r
			}
		}
		fc.residual[b] = fc.blockBound[b].add(succBest)
		acyR[b] = satAdd(acySuffix[b][0].v, acyBest)
	}
	fc.funcBound = fc.residual[f.Entry()]
	fc.acyclic = acyR[f.Entry()]
}

// FuncBound bounds the cost of one call to f, callees included.
func (a *Analysis) FuncBound(f *ir.Func) (uint64, bool) {
	fc := a.fns[f]
	if fc == nil || !fc.funcBound.ok {
		return 0, false
	}
	return fc.funcBound.v, true
}

// AcyclicPathBound bounds the cost of any single acyclic path through f
// (loop bodies charged once, callees by their own acyclic bounds). It is
// always finite.
func (a *Analysis) AcyclicPathBound(f *ir.Func) uint64 {
	fc := a.fns[f]
	if fc == nil {
		return 0
	}
	return fc.acyclic
}

// Residual bounds the remaining cost of an execution positioned at
// instruction pc of block b. Inside a loop the bound falls back to the
// outermost enclosing loop header's whole-region bound, which covers
// every remaining iteration.
func (a *Analysis) Residual(b *ir.Block, pc int) (uint64, bool) {
	fc := a.fns[b.Fn]
	if fc == nil {
		return 0, false
	}
	if outer := fc.outerLoop[b]; outer != nil {
		r, ok := fc.residual[outer.Header]
		if !ok || !r.ok {
			return 0, false
		}
		return r.v, true
	}
	suf := fc.suffix[b]
	if suf == nil {
		return 0, false
	}
	if pc < 0 {
		pc = 0
	}
	if pc >= len(suf) {
		pc = len(suf) - 1
	}
	rest := suf[pc]
	succBest := bound{0, true}
	for _, s := range b.Succs() {
		if retreating(fc.facts, b, s) {
			continue
		}
		succBest = maxBound(succBest, fc.residual[s])
	}
	r := rest.add(succBest)
	if !r.ok {
		return 0, false
	}
	return r.v, true
}

// WorkloadBound bounds the cost of processing packets invocations of the
// entry function — the per-workload static worst case reported next to
// measured cycles.
func (a *Analysis) WorkloadBound(entry string, packets int) (uint64, bool) {
	f := a.mod.Funcs[entry]
	if f == nil || packets < 0 {
		return 0, false
	}
	fb, ok := a.FuncBound(f)
	if !ok {
		return 0, false
	}
	return satMul(fb, uint64(packets)), true
}
