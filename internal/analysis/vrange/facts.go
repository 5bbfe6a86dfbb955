package vrange

import (
	"fmt"

	"castan/internal/ir"
)

// Of returns the joined fact for a value-defining instruction, or false
// when the instruction was never reached (or defines nothing).
func (a *Analysis) Of(in *ir.Instr) (VRange, bool) {
	r, ok := a.instr[in]
	if !ok || r.IsBot() {
		return VRange{}, false
	}
	return r, true
}

// BranchDecided reports whether the analysis statically decides an
// OpCondBr: takeTrue is the side every execution takes. Branches the
// fixpoint never reached (bottom condition) are not decided — symbex
// must not act on vacuous facts.
func (a *Analysis) BranchDecided(in *ir.Instr) (takeTrue bool, ok bool) {
	c, found := a.condRng[in]
	if !found || c.IsBot() {
		return false, false
	}
	if c.NeverZero() {
		return true, true
	}
	if c.AlwaysZero() {
		return false, true
	}
	return false, false
}

// Summary aggregates the analysis outcome for reports and telemetry.
type Summary struct {
	Funcs             int  `json:"funcs"`
	Rounds            int  `json:"rounds"`
	Capped            bool `json:"capped"`
	Facts             int  `json:"facts"`
	Singletons        int  `json:"singletons"`
	DecidedBranches   int  `json:"decided_branches"`
	DeadEdges         int  `json:"dead_edges"`
	UnreachableBlocks int  `json:"unreachable_blocks"`
}

// Stats summarizes the run.
func (a *Analysis) Stats() Summary {
	s := Summary{Funcs: len(a.order), Rounds: a.Rounds, Capped: a.Capped}
	for _, r := range a.instr {
		if r.IsBot() {
			continue
		}
		s.Facts++
		if _, ok := r.IsSingleton(); ok {
			s.Singletons++
		}
	}
	for in := range a.condRng {
		if _, ok := a.BranchDecided(in); ok {
			s.DecidedBranches++
			s.DeadEdges++
		}
	}
	for _, f := range a.order {
		reached := a.reached[f]
		for _, b := range f.Blocks {
			if !reached[b.Index] {
				s.UnreachableBlocks++
			}
		}
	}
	return s
}

// String renders a fact compactly: "=k" for constants, "[lo,hi]" plain
// intervals, "[lo,hi]≡r(mod s)" with congruence.
func (r VRange) String() string {
	if r.IsBot() {
		return "⊥"
	}
	if v, ok := r.IsSingleton(); ok {
		return fmt.Sprintf("=%#x", v)
	}
	if r.Stride > 1 {
		return fmt.Sprintf("[%#x,%#x]≡%d(mod %d)", r.Lo, r.Hi, r.Rem, r.Stride)
	}
	return fmt.Sprintf("[%#x,%#x]", r.Lo, r.Hi)
}
