// Package icfg implements the pre-processing stage of CASTAN's directed
// search (§3.4): it extracts the interprocedural control-flow graph of an
// IR module, assigns each instruction a local cycle cost (assuming all
// memory accesses hit L1), and annotates every program point with a
// "potential cost" — an estimate of the maximum cycles from that point to
// the return of its function.
//
// Loops make the longest-path problem ill-defined, so, following the
// paper, a path-vector propagation bounds each block to at most M
// occurrences per path (M=2 by default: every loop is assumed to run
// exactly M-1 = 1 time during estimation). Call sites embed callee
// summaries; the call graph is acyclic by IR validation, so summaries are
// computed bottom-up.
package icfg

import (
	"fmt"

	"castan/internal/analysis"
	"castan/internal/ir"
)

// CostModel assigns cycle estimates to instructions. The same model is
// used by the testbed's cycle accounting so that CASTAN's cost heuristic
// and the measured cycles are commensurable.
type CostModel struct {
	Arith  uint64 // add/sub/logic/shift
	Mul    uint64
	Div    uint64 // udiv/urem
	Cmp    uint64
	Mov    uint64
	Branch uint64
	Call   uint64 // call+ret bookkeeping, added at the call site
	Alloc  uint64
	Havoc  uint64 // cost of computing the (havoced) hash itself
	MemL1  uint64 // load/store when it hits L1 — the optimistic assumption
	// MemDRAM is the full load/store latency when the access goes to
	// DRAM; MemDRAM-MemL1 is the miss penalty consumers (symbex, the
	// cachecost bounds) add on top of InstrCost's MemL1 pricing.
	MemDRAM uint64
}

// DefaultCostModel mirrors rough Ivy Bridge latencies.
func DefaultCostModel() CostModel {
	return CostModel{
		Arith:   1,
		Mul:     3,
		Div:     21,
		Cmp:     1,
		Mov:     1,
		Branch:  2,
		Call:    4,
		Alloc:   8,
		Havoc:   28,
		MemL1:   4,
		MemDRAM: 210,
	}
}

// InstrCost returns the local cost of an instruction, excluding callee
// bodies (see Analysis.BlockCost for the call-inclusive version).
func (c CostModel) InstrCost(in *ir.Instr) uint64 {
	switch in.Op {
	case ir.OpConst, ir.OpMov:
		return c.Mov
	case ir.OpBin:
		switch in.Bin {
		case ir.Mul:
			return c.Mul
		case ir.UDiv, ir.URem:
			return c.Div
		default:
			return c.Arith
		}
	case ir.OpCmp, ir.OpSelect:
		return c.Cmp
	case ir.OpLoad, ir.OpStore:
		return c.MemL1
	case ir.OpBr, ir.OpCondBr:
		return c.Branch
	case ir.OpCall, ir.OpRet:
		return c.Call
	case ir.OpAlloc:
		return c.Alloc
	case ir.OpHavoc:
		return c.Havoc
	}
	return 1
}

// Analysis is the annotated ICFG of a module.
type Analysis struct {
	M    int
	Cost CostModel

	fns map[*ir.Func]*funcInfo
}

type funcInfo struct {
	summary   uint64               // max cost entry→return
	blockCost map[*ir.Block]uint64 // includes callee summaries at call sites
	potential map[*ir.Block]uint64 // max cost from block start → return
	loopHead  map[*ir.Block]bool
	suffix    map[*ir.Block][]uint64 // suffix[i] = cost of instrs i..end
}

// Analyze builds the annotated ICFG. M must be at least 1; the module must
// validate (in particular: acyclic call graph).
func Analyze(mod *ir.Module, m int, cost CostModel) (*Analysis, error) {
	if m < 1 {
		return nil, fmt.Errorf("icfg: M must be >= 1, got %d", m)
	}
	a := &Analysis{M: m, Cost: cost, fns: map[*ir.Func]*funcInfo{}}
	// Bottom-up over the call graph: process a function after its callees.
	done := map[*ir.Func]bool{}
	var process func(f *ir.Func) error
	process = func(f *ir.Func) error {
		if done[f] {
			return nil
		}
		done[f] = true // call graph is acyclic, so no cycle hazard
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall {
					if err := process(in.Callee); err != nil {
						return err
					}
				}
			}
		}
		a.fns[f] = a.analyzeFunc(f)
		return nil
	}
	for _, f := range mod.Funcs {
		if err := process(f); err != nil {
			return nil, err
		}
	}
	return a, nil
}

func (a *Analysis) analyzeFunc(f *ir.Func) *funcInfo {
	fi := &funcInfo{
		blockCost: map[*ir.Block]uint64{},
		potential: map[*ir.Block]uint64{},
		loopHead:  map[*ir.Block]bool{},
		suffix:    map[*ir.Block][]uint64{},
	}
	for _, b := range f.Blocks {
		var total uint64
		suf := make([]uint64, len(b.Instrs)+1)
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := b.Instrs[i]
			c := a.Cost.InstrCost(in)
			if in.Op == ir.OpCall {
				c += a.fns[in.Callee].summary
			}
			suf[i] = suf[i+1] + c
		}
		total = suf[0]
		fi.blockCost[b] = total
		fi.suffix[b] = suf
	}
	// Loop heads come from the shared dominator-based natural-loop forest.
	// On the reducible CFGs the builder emits, natural-loop headers are
	// exactly the back-edge targets a DFS would gray-mark, so this is a
	// drop-in replacement (pinned by the regression test against the
	// pre-swap goldens).
	for _, h := range analysis.ForFunc(f).Loops.Headers() {
		fi.loopHead[h] = true
	}
	a.propagate(f, fi)
	fi.summary = fi.potential[f.Entry()]
	return fi
}

// propagate runs the path-vector longest-path estimation: each block keeps
// its single best (cost, path) to a return, and a block may appear at most
// M times in a path.
func (a *Analysis) propagate(f *ir.Func, fi *funcInfo) {
	type pvEntry struct {
		cost uint64
		path []int32 // block indices, most recent first
	}
	pv := make([]*pvEntry, len(f.Blocks))
	preds := make([][]*ir.Block, len(f.Blocks))
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			preds[s.Index] = append(preds[s.Index], b)
		}
	}
	var work []*ir.Block
	inWork := make([]bool, len(f.Blocks))
	push := func(b *ir.Block) {
		if !inWork[b.Index] {
			inWork[b.Index] = true
			work = append(work, b)
		}
	}
	for _, b := range f.Blocks {
		if t := b.Terminator(); t != nil && t.Op == ir.OpRet {
			pv[b.Index] = &pvEntry{cost: fi.blockCost[b], path: []int32{int32(b.Index)}}
			for _, p := range preds[b.Index] {
				push(p)
			}
		}
	}
	countIn := func(path []int32, idx int32) int {
		n := 0
		for _, p := range path {
			if p == idx {
				n++
			}
		}
		return n
	}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[b.Index] = false
		var best *pvEntry
		for _, s := range b.Succs() {
			sp := pv[s.Index]
			if sp == nil {
				continue
			}
			if countIn(sp.path, int32(b.Index)) >= a.M {
				continue
			}
			cand := fi.blockCost[b] + sp.cost
			if best == nil || cand > best.cost {
				path := make([]int32, 0, len(sp.path)+1)
				path = append(path, int32(b.Index))
				path = append(path, sp.path...)
				best = &pvEntry{cost: cand, path: path}
			}
		}
		if best != nil && (pv[b.Index] == nil || best.cost > pv[b.Index].cost) {
			pv[b.Index] = best
			for _, p := range preds[b.Index] {
				push(p)
			}
		}
	}
	for _, b := range f.Blocks {
		if pv[b.Index] != nil {
			fi.potential[b] = pv[b.Index].cost
		} else {
			// Unreachable-to-return block (e.g. infinite loop): fall back
			// to its own cost.
			fi.potential[b] = fi.blockCost[b]
		}
	}
}

// Summary returns the function's max estimated cost entry→return.
func (a *Analysis) Summary(f *ir.Func) uint64 {
	fi := a.fns[f]
	if fi == nil {
		return 0
	}
	return fi.summary
}

// BlockCost returns the block's local cost (callee summaries included).
func (a *Analysis) BlockCost(b *ir.Block) uint64 {
	fi := a.fns[b.Fn]
	if fi == nil {
		return 0
	}
	return fi.blockCost[b]
}

// Potential returns the estimated maximum cost from instruction pc of
// block b through the function's return: the remaining cost of b plus the
// best successor potential (bounded by the path-vector estimate).
func (a *Analysis) Potential(b *ir.Block, pc int) uint64 {
	fi := a.fns[b.Fn]
	if fi == nil {
		return 0
	}
	if pc < 0 {
		pc = 0
	}
	suf := fi.suffix[b]
	if pc >= len(suf) {
		pc = len(suf) - 1
	}
	rest := suf[pc]
	var succBest uint64
	for _, s := range b.Succs() {
		if p := fi.potential[s]; p > succBest {
			succBest = p
		}
	}
	return rest + succBest
}

// IsLoopHead reports whether b heads a natural loop (equivalently, on the
// reducible CFGs the builder emits: whether b is the target of a back
// edge).
func (a *Analysis) IsLoopHead(b *ir.Block) bool {
	fi := a.fns[b.Fn]
	return fi != nil && fi.loopHead[b]
}
