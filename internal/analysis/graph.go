package analysis

import (
	"sort"

	"castan/internal/ir"
)

// idoms runs the Cooper-Harvey-Kennedy iterative dominator algorithm ("A
// Simple, Fast Dominance Algorithm") over an int-indexed graph of n nodes:
// intersect dominator paths in reverse postorder until a fixed point. It
// returns each node's immediate dominator (root maps to itself, nodes
// unreachable from root to -1), the reverse postorder over reachable
// nodes (root first, successors visited in succ order), and each node's
// position in it (-1 if unreachable). Forward dominators and, over the
// reversed CFG, postdominators both come from here.
func idoms(n, root int, succ, pred [][]int) (idom, rpo, rpoNum []int) {
	// Iterative postorder DFS from the root.
	type frame struct{ v, next int }
	seen := make([]bool, n)
	rpo = make([]int, 0, n)
	stack := []frame{{v: root}}
	seen[root] = true
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
		rpo = append(rpo, fr.v)
		stack = stack[:len(stack)-1]
	}
	for i, j := 0, len(rpo)-1; i < j; i, j = i+1, j-1 {
		rpo[i], rpo[j] = rpo[j], rpo[i]
	}
	rpoNum = make([]int, n)
	idom = make([]int, n)
	for i := range rpoNum {
		rpoNum[i], idom[i] = -1, -1
	}
	for i, v := range rpo {
		rpoNum[v] = i
	}

	idom[root] = root
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
			if v == root {
				continue
			}
			newIdom := -1
			for _, p := range pred[v] {
				if idom[p] < 0 {
					continue // predecessor not yet processed or unreachable
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
	return idom, rpo, rpoNum
}

// callerFirstOrder topologically sorts functions so every caller precedes
// its callees (roots first, ties broken by sorted name). The call graph
// is acyclic by validation. Every interprocedural pass that propagates
// facts from callers into callees iterates in this order.
func callerFirstOrder(mf *ModuleFacts) []*ir.Func {
	indeg := map[*ir.Func]int{}
	callees := map[*ir.Func][]*ir.Func{}
	for _, name := range mf.FuncNames {
		f := mf.Mod.Funcs[name]
		if _, ok := indeg[f]; !ok {
			indeg[f] = 0
		}
		seen := map[*ir.Func]bool{}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall && !seen[in.Callee] {
					seen[in.Callee] = true
					callees[f] = append(callees[f], in.Callee)
					indeg[in.Callee]++
				}
			}
		}
	}
	var ready []*ir.Func
	for _, name := range mf.FuncNames {
		f := mf.Mod.Funcs[name]
		if indeg[f] == 0 {
			ready = append(ready, f)
		}
	}
	var order []*ir.Func
	for len(ready) > 0 {
		sort.Slice(ready, func(i, j int) bool { return ready[i].Name < ready[j].Name })
		f := ready[0]
		ready = ready[1:]
		order = append(order, f)
		for _, c := range callees[f] {
			indeg[c]--
			if indeg[c] == 0 {
				ready = append(ready, c)
			}
		}
	}
	return order
}

// HintedOrder resolves the entry hints of an interprocedural pass that
// only analyzes what its roots can reach. entries are the hinted function
// names present in the module (sorted); params seeds each entry's
// parameters with its hints, top standing in for parameters the hints do
// not cover; order is every function reachable from an entry over the
// call graph, callers first.
func HintedOrder[T any](mf *ModuleFacts, hints map[string][]T, top T) (entries []string, params map[*ir.Func][]T, order []*ir.Func) {
	params = map[*ir.Func][]T{}
	reachable := map[*ir.Func]bool{}
	var mark func(f *ir.Func)
	mark = func(f *ir.Func) {
		if reachable[f] {
			return
		}
		reachable[f] = true
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall {
					mark(in.Callee)
				}
			}
		}
	}
	for _, name := range mf.FuncNames {
		h, ok := hints[name]
		if !ok {
			continue
		}
		f := mf.Mod.Funcs[name]
		entries = append(entries, name)
		ps := make([]T, f.NumParams)
		for i := range ps {
			if i < len(h) {
				ps[i] = h[i]
			} else {
				ps[i] = top
			}
		}
		params[f] = ps
		mark(f)
	}
	for _, f := range callerFirstOrder(mf) {
		if reachable[f] {
			order = append(order, f)
		}
	}
	return entries, params, order
}
