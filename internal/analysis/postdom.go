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

	// Iterative RPO DFS from the virtual exit over the reversed graph.
	rpoNum := make([]int, n+1)
	for i := range rpoNum {
		rpoNum[i] = -1
	}
	type frame struct {
		v    int
		next int
	}
	seen := make([]bool, n+1)
	var post []int
	stack := []frame{{v: exit}}
	seen[exit] = true
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		if fr.next < len(succ[fr.v]) {
			s := succ[fr.v][fr.next]
			fr.next++
			if !seen[s] {
				seen[s] = true
				stack = append(stack, frame{v: s})
			}
			continue
		}
		post = append(post, fr.v)
		stack = stack[:len(stack)-1]
	}
	rpo := make([]int, len(post))
	for i := range post {
		rpo[len(post)-1-i] = post[i]
	}
	for i, v := range rpo {
		rpoNum[v] = i
	}

	idom := make([]int, n+1)
	for i := range idom {
		idom[i] = -1
	}
	idom[exit] = exit
	intersect := func(a, b int) int {
		for a != b {
			for rpoNum[a] > rpoNum[b] {
				a = idom[a]
			}
			for rpoNum[b] > rpoNum[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, v := range rpo {
			if v == exit {
				continue
			}
			newIdom := -1
			for _, p := range pred[v] {
				if idom[p] < 0 {
					continue
				}
				if newIdom < 0 {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom >= 0 && idom[v] != newIdom {
				idom[v] = newIdom
				changed = true
			}
		}
	}
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
