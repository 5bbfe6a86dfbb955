package analysis

import "castan/internal/ir"

// WidenAfter bounds how many times a block's entry state is re-joined
// before growing values are widened to their extremes. Every forward
// register-state pass (memregion, taint, vrange) uses the same bound.
const WidenAfter = 4

// RegFixpoint solves a forward, flow-sensitive register dataflow problem
// over one function: entry is the state at the function entry, exec
// abstractly executes a block in place, and join/widen are the domain's
// operators. The worklist always pops the block earliest in reverse
// postorder, and a block joined WidenAfter times is widened from then on.
// It returns the converged per-block entry states, nil for unreachable
// blocks.
func RegFixpoint[T comparable](fa *Facts, entry []T, exec func(b *ir.Block, state []T), join, widen func(prev, next T) T) [][]T {
	f := fa.Fn
	n := len(f.Blocks)
	in := make([][]T, n)
	visits := make([]int, n)
	in[f.Entry().Index] = entry

	work := []int{f.Entry().Index}
	inWork := make([]bool, n)
	inWork[f.Entry().Index] = true
	for len(work) > 0 {
		// Pop the block earliest in RPO for fast convergence.
		best := 0
		for i := 1; i < len(work); i++ {
			if fa.RPONum[work[i]] < fa.RPONum[work[best]] {
				best = i
			}
		}
		bi := work[best]
		work = append(work[:best], work[best+1:]...)
		inWork[bi] = false
		b := f.Blocks[bi]

		state := cloneState(in[bi])
		exec(b, state)
		for _, s := range b.Succs() {
			si := s.Index
			var next []T
			if in[si] == nil {
				next = cloneState(state)
			} else {
				next = make([]T, len(state))
				changed := false
				for r := range next {
					j := join(in[si][r], state[r])
					if visits[si] >= WidenAfter {
						j = widen(in[si][r], j)
					}
					next[r] = j
					if j != in[si][r] {
						changed = true
					}
				}
				if !changed {
					continue
				}
			}
			in[si] = next
			visits[si]++
			if !inWork[si] {
				inWork[si] = true
				work = append(work, si)
			}
		}
	}
	return in
}

// cloneState copies a register state; the copy is non-nil even when the
// function has no registers, because a nil entry state means unreachable.
func cloneState[T any](s []T) []T {
	c := make([]T, len(s))
	copy(c, s)
	return c
}
