package analysis

import (
	"castan/internal/ir"
)

// Postdoms computes immediate postdominators per block index by running
// the Cooper-Harvey-Kennedy dominator algorithm over the reversed CFG
// augmented with a virtual exit that every OpRet block flows to. The
// result maps each block to its immediate postdominator's block index,
// len(blocks) for the virtual exit itself, or -1 for blocks that cannot
// reach function exit (those dominate nothing backwards; callers treat
// their control-dependence region as unbounded). Taint's implicit-flow
// closure is built on it.
func Postdoms(f *ir.Func) []int {
	n := len(f.Blocks)
	exit := n
	// Reversed graph over nodes 0..n (n = virtual exit): an original
	// edge u→w becomes w→u, and exit→e for every returning block e.
	succ := make([][]int, n+1)
	pred := make([][]int, n+1)
	addEdge := func(u, w int) {
		succ[u] = append(succ[u], w)
		pred[w] = append(pred[w], u)
	}
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			addEdge(s.Index, b.Index)
		}
		if t := b.Terminator(); t != nil && t.Op == ir.OpRet {
			addEdge(exit, b.Index)
		}
	}

	idom, _, _ := idoms(n+1, exit, succ, pred)
	return idom[:n]
}

// CtlRegion returns the block indices control-dependent on b's branch:
// everything reachable from b's successors on the forward CFG without
// passing through b's immediate postdominator ipd (-1 means unbounded —
// b cannot reach exit — so the walk only stops at visited blocks). The
// result is in ascending index order for determinism.
func CtlRegion(f *ir.Func, b *ir.Block, ipd int) []int {
	n := len(f.Blocks)
	seen := make([]bool, n)
	var stack []int
	for _, s := range b.Succs() {
		if s.Index != ipd && !seen[s.Index] {
			seen[s.Index] = true
			stack = append(stack, s.Index)
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range f.Blocks[v].Succs() {
			if s.Index != ipd && !seen[s.Index] {
				seen[s.Index] = true
				stack = append(stack, s.Index)
			}
		}
	}
	var out []int
	for i := 0; i < n; i++ {
		if seen[i] {
			out = append(out, i)
		}
	}
	return out
}
