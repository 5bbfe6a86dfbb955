// Package analysis is the static-analysis layer over internal/ir: one
// shared source of truth for control-flow and dataflow facts that every
// downstream consumer — icfg's potential-cost heuristic, castan's
// contention-set seeding and havoc-site selection, and the castan lint CI gate
// — derives from the same pass pipeline instead of re-implementing ad-hoc
// walks.
//
// The pipeline mirrors what CASTAN gets for free from LLVM in the paper
// (and what CANAL inserts as transformation passes before symbolic
// execution runs):
//
//   - CFG facts: predecessor/successor maps and a reverse postorder;
//   - a dominator tree (Cooper-Harvey-Kennedy iterative algorithm);
//   - the natural-loop forest, with nesting depth and, where the bound is
//     statically derivable, loop trip counts;
//   - def-before-use verification and per-block register liveness
//     (iterative backward dataflow);
//   - a memory-region pass classifying every load/store to the global (or
//     packet/heap pseudo-region) it can address, via a base-region +
//     offset-interval abstraction of the register machine, flagging
//     accesses that may escape their region's extent;
//   - a diagnostics engine producing structured per-instruction findings
//     with severities.
//
// All passes are deterministic: iteration orders follow block indices and
// sorted function names, never map order.
package analysis

import (
	"fmt"
	"sort"

	"castan/internal/ir"
)

// Facts holds every per-function CFG fact. Slices are indexed by
// ir.Block.Index.
type Facts struct {
	Fn *ir.Func

	// Preds lists each block's predecessors (by ascending block index).
	Preds [][]*ir.Block
	// RPO is the reverse postorder over reachable blocks, entry first.
	RPO []*ir.Block
	// RPONum maps a block index to its position in RPO, or -1 if the
	// block is unreachable from the entry.
	RPONum []int
	// Idom maps a block index to its immediate dominator; the entry maps
	// to itself and unreachable blocks map to nil.
	Idom []*ir.Block
	// Loops is the natural-loop forest.
	Loops *LoopForest
}

// ForFunc computes the CFG facts for one function: predecessors, reverse
// postorder, dominator tree, and loop forest.
func ForFunc(f *ir.Func) *Facts {
	fa := &Facts{Fn: f}
	fa.buildCFG()
	fa.buildLoops()
	return fa
}

// buildCFG fills in the predecessor lists, the reverse postorder and the
// dominator tree (see idoms).
func (fa *Facts) buildCFG() {
	f := fa.Fn
	n := len(f.Blocks)
	succ := make([][]int, n)
	pred := make([][]int, n)
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			succ[b.Index] = append(succ[b.Index], s.Index)
			pred[s.Index] = append(pred[s.Index], b.Index)
		}
	}
	blocks := func(idx []int) []*ir.Block {
		out := make([]*ir.Block, len(idx))
		for i, v := range idx {
			out[i] = f.Blocks[v]
		}
		return out
	}
	fa.Preds = make([][]*ir.Block, n)
	for i, ps := range pred {
		sort.Ints(ps)
		fa.Preds[i] = blocks(ps)
	}
	idom, rpo, rpoNum := idoms(n, f.Entry().Index, succ, pred)
	fa.RPO, fa.RPONum = blocks(rpo), rpoNum
	fa.Idom = make([]*ir.Block, n)
	for i, d := range idom {
		if d >= 0 {
			fa.Idom[i] = f.Blocks[d]
		}
	}
}

// Reachable reports whether b is reachable from the function entry.
func (fa *Facts) Reachable(b *ir.Block) bool { return fa.RPONum[b.Index] >= 0 }

// Dominates reports whether a dominates b (reflexively). Unreachable
// blocks are dominated by nothing and dominate nothing (except
// themselves, vacuously excluded here).
func (fa *Facts) Dominates(a, b *ir.Block) bool {
	if !fa.Reachable(a) || !fa.Reachable(b) {
		return false
	}
	entry := fa.Fn.Entry()
	for {
		if b == a {
			return true
		}
		if b == entry {
			return false
		}
		b = fa.Idom[b.Index]
	}
}

// ModuleFacts computes facts for every function of a module, keyed by
// function. FuncNames is sorted for deterministic iteration.
type ModuleFacts struct {
	Mod       *ir.Module
	FuncNames []string
	Funcs     map[*ir.Func]*Facts
}

// ForModule computes per-function facts for the whole module.
func ForModule(mod *ir.Module) *ModuleFacts {
	mf := &ModuleFacts{
		Mod:   mod,
		Funcs: map[*ir.Func]*Facts{},
	}
	for name := range mod.Funcs {
		mf.FuncNames = append(mf.FuncNames, name)
	}
	sort.Strings(mf.FuncNames)
	for _, name := range mf.FuncNames {
		f := mod.Funcs[name]
		mf.Funcs[f] = ForFunc(f)
	}
	return mf
}

// HavocSite is a statically located OpHavoc instruction: the IR-level
// havoc candidates the paper finds by castan_havoc annotation, here
// recovered from the instruction stream together with the loop context
// that makes a site attractive (hash calls inside lookup loops are the
// collision amplifiers).
type HavocSite struct {
	Fn        *ir.Func
	Block     *ir.Block
	InstrIdx  int
	HashID    int
	LoopDepth int
}

// HavocSites enumerates every OpHavoc instruction in the module in
// deterministic order (function name, block index, instruction index).
func (mf *ModuleFacts) HavocSites() []HavocSite {
	var sites []HavocSite
	for _, name := range mf.FuncNames {
		f := mf.Mod.Funcs[name]
		fa := mf.Funcs[f]
		for _, b := range f.Blocks {
			for i, in := range b.Instrs {
				if in.Op == ir.OpHavoc {
					sites = append(sites, HavocSite{
						Fn: f, Block: b, InstrIdx: i,
						HashID:    in.HashID,
						LoopDepth: fa.Loops.Depth(b),
					})
				}
			}
		}
	}
	return sites
}

func instrRef(f *ir.Func, b *ir.Block, idx int) string {
	return fmt.Sprintf("%s/%s/%d", f.Name, b.Name, idx)
}
