package taint

import (
	"castan/internal/analysis"
	"castan/internal/ir"
)

// Of returns the classification of one instruction. ok is false when
// the instruction was never reached by the analysis (its function is
// unreachable from every hinted entry, or the block is dead).
func (a *Analysis) Of(in *ir.Instr) (InstrTaint, bool) {
	it, ok := a.instr[in]
	return it, ok
}

// ClassOf returns the class of the value an instruction defines (or its
// condition/stored value/return value — see InstrTaint.Val), degrading
// to TaintedOpaque for unreached instructions: the analysis only proves
// facts about executions starting at its entry hints.
func (a *Analysis) ClassOf(in *ir.Instr) Class {
	if it, ok := a.instr[in]; ok {
		return it.Val.Class
	}
	return TaintedOpaque
}

// Summary counts the per-instruction classification outcomes.
type Summary struct {
	// Instructions is how many instructions the analysis reached.
	Instructions int
	Untainted    int
	Linear       int
	Opaque       int
	// HashSites counts the module's havoc sites; FoldableHashSites how
	// many have a provably input-independent key (symbex folds these
	// concretely, and no rainbow table is ever needed for them).
	HashSites         int
	FoldableHashSites int
}

// Stats tallies the solution. Counts are join-order independent, so
// iterating the instruction map is deterministic.
func (a *Analysis) Stats() Summary {
	s := Summary{Instructions: len(a.instr)}
	for _, it := range a.instr {
		switch it.Val.Class {
		case Untainted:
			s.Untainted++
		case TaintedLinear:
			s.Linear++
		default:
			s.Opaque++
		}
	}
	for _, site := range a.HashSites() {
		s.HashSites++
		if site.Foldable {
			s.FoldableHashSites++
		}
	}
	return s
}

// HashSiteTaint is one havoc site with its key controllability: Key
// joins the key buffer's content taint, the key pointer's taint, and
// the site's control taint. Foldable sites have a provably fixed key —
// their hash output is a run-to-run constant the symbolic engine can
// compute outright.
type HashSiteTaint struct {
	analysis.HavocSite
	Key      Taint
	Reached  bool
	Foldable bool
}

// HashSites classifies every havoc site in deterministic order
// (function name, block index, instruction index). Unreached sites are
// conservatively not foldable.
func (a *Analysis) HashSites() []HashSiteTaint {
	var out []HashSiteTaint
	for _, site := range a.mf.HavocSites() {
		st := HashSiteTaint{HavocSite: site, Key: Opaque()}
		in := site.Block.Instrs[site.InstrIdx]
		if it, ok := a.instr[in]; ok {
			st.Reached = true
			st.Key = it.Addr
			st.Foldable = !it.Addr.Tainted()
		}
		out = append(out, st)
	}
	return out
}
