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
// callee's whole-function bound.
func (a *Analysis) instrBound(in *ir.Instr) bound {
	c := a.cost.Op.InstrCost(in)
	switch in.Op {
	case ir.OpLoad, ir.OpStore:
		if a.class[in] != AlwaysHit {
			c = satAdd(c, a.cost.MissPenalty)
		}
	case ir.OpCall:
		cs := a.fns[in.Callee]
		if cs == nil || !cs.funcBound.ok {
			return bound{0, false}
		}
		c = satAdd(c, cs.funcBound.v)
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
	for _, b := range fa.RPO {
		n := len(b.Instrs)
		suf := make([]bound, n+1)
		suf[n] = bound{0, true}
		for i := n - 1; i >= 0; i-- {
			suf[i] = a.instrBound(b.Instrs[i]).add(suf[i+1])
		}
		fc.suffix[b] = suf

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
	for i := len(fa.RPO) - 1; i >= 0; i-- {
		b := fa.RPO[i]
		succBest := bound{0, true}
		for _, s := range b.Succs() {
			if retreating(fa, b, s) {
				continue
			}
			succBest = maxBound(succBest, fc.residual[s])
		}
		fc.residual[b] = fc.blockBound[b].add(succBest)
	}
	fc.funcBound = fc.residual[f.Entry()]
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
