package analysis

import (
	"fmt"

	"castan/internal/ir"
)

// regSet is a bitset over a function's registers.
type regSet []uint64

func newRegSet(nregs int) regSet { return make(regSet, (nregs+63)/64) }

func (s regSet) has(r ir.Reg) bool { return s[int(r)/64]&(1<<(uint(r)%64)) != 0 }
func (s regSet) add(r ir.Reg)      { s[int(r)/64] |= 1 << (uint(r) % 64) }
func (s regSet) clone() regSet     { c := make(regSet, len(s)); copy(c, s); return c }

// or sets s |= t, reporting whether s changed.
func (s regSet) or(t regSet) bool {
	changed := false
	for i := range s {
		if nv := s[i] | t[i]; nv != s[i] {
			s[i] = nv
			changed = true
		}
	}
	return changed
}

// and sets s &= t.
func (s regSet) and(t regSet) {
	for i := range s {
		s[i] &= t[i]
	}
}

// Liveness is the per-block register liveness solution of a function:
// which registers may be read after each block boundary before being
// redefined.
type Liveness struct {
	// liveIn/liveOut are indexed by block index.
	liveIn, liveOut []regSet
}

// LiveIn reports whether r is live at the entry of b.
func (lv *Liveness) LiveIn(b *ir.Block, r ir.Reg) bool { return lv.liveIn[b.Index].has(r) }

// LiveOut reports whether r is live at the exit of b.
func (lv *Liveness) LiveOut(b *ir.Block, r ir.Reg) bool { return lv.liveOut[b.Index].has(r) }

// liveness runs the classic iterative backward may-analysis:
//
//	liveOut[b] = ∪ liveIn[succ]
//	liveIn[b]  = use[b] ∪ (liveOut[b] − def[b])
//
// iterating blocks in reverse index order until a fixed point.
func liveness(f *ir.Func) *Liveness {
	n := len(f.Blocks)
	lv := &Liveness{
		liveIn:  make([]regSet, n),
		liveOut: make([]regSet, n),
	}
	// Per-block gen (used before defined) and kill (defined) sets.
	gen := make([]regSet, n)
	kill := make([]regSet, n)
	for _, b := range f.Blocks {
		g, k := newRegSet(f.NumRegs), newRegSet(f.NumRegs)
		for _, in := range b.Instrs {
			in.Uses(func(r ir.Reg) {
				if !k.has(r) {
					g.add(r)
				}
			})
			if d := in.Def(); d != ir.NoReg {
				k.add(d)
			}
		}
		gen[b.Index], kill[b.Index] = g, k
		lv.liveIn[b.Index] = newRegSet(f.NumRegs)
		lv.liveOut[b.Index] = newRegSet(f.NumRegs)
	}
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			b := f.Blocks[i]
			out := lv.liveOut[i]
			for _, s := range b.Succs() {
				if out.or(lv.liveIn[s.Index]) {
					changed = true
				}
			}
			// in = gen ∪ (out − kill)
			in := out.clone()
			for w := range in {
				in[w] &^= kill[i][w]
				in[w] |= gen[i][w]
			}
			if lv.liveIn[i].or(in) {
				changed = true
			}
		}
	}
	return lv
}

// checkDefBeforeUse runs the forward "definitely assigned" must-analysis
// and reports every use of a register that some path reaches without a
// prior definition. Parameters are assigned at entry; all other registers
// start unassigned (the interpreter zero-fills frames, but an NF relying
// on that is a latent bug the gate must catch before symbex mis-explores
// it).
func checkDefBeforeUse(f *ir.Func, fa *Facts, rep *Report) {
	n := len(f.Blocks)
	full := newRegSet(f.NumRegs)
	for i := range full {
		full[i] = ^uint64(0)
	}
	in := make([]regSet, n)
	out := make([]regSet, n)
	for i := 0; i < n; i++ {
		// Start from ⊤ (all assigned) so the meet converges downward;
		// the entry starts from just the parameters.
		in[i] = full.clone()
		out[i] = full.clone()
	}
	entry := f.Entry()
	in[entry.Index] = newRegSet(f.NumRegs)
	for p := 0; p < f.NumParams; p++ {
		in[entry.Index].add(ir.Reg(p))
	}
	transfer := func(b *ir.Block, s regSet) regSet {
		s = s.clone()
		for _, instr := range b.Instrs {
			if d := instr.Def(); d != ir.NoReg {
				s.add(d)
			}
		}
		return s
	}
	for changed := true; changed; {
		changed = false
		for _, b := range fa.RPO {
			s := in[b.Index]
			if b != entry {
				s = full.clone()
				for _, p := range fa.Preds[b.Index] {
					if fa.Reachable(p) {
						s.and(out[p.Index])
					}
				}
				in[b.Index] = s
			}
			ns := transfer(b, s)
			for w := range ns {
				if ns[w] != out[b.Index][w] {
					out[b.Index] = ns
					changed = true
					break
				}
			}
		}
	}
	// Report uses not covered by the definitely-assigned set.
	for _, b := range fa.RPO {
		s := in[b.Index].clone()
		for idx, instr := range b.Instrs {
			instr.Uses(func(r ir.Reg) {
				if !s.has(r) {
					rep.add(Finding{
						Pass: "defuse", Sev: SevError,
						Fn: f, Block: b, InstrIdx: idx,
						Msg: fmt.Sprintf("use of possibly-undefined register r%d", r),
					})
				}
			})
			if d := instr.Def(); d != ir.NoReg {
				s.add(d)
			}
		}
	}
}

// checkDeadDefs reports pure computations whose result no path reads:
// Info-level, since dead code is waste, not breakage. Loads, calls,
// allocs, and havocs are excluded — they have architectural side effects
// (cache traffic, heap growth, havoc recording) that NFs use on purpose
// (the NOP's header touch, for one).
func checkDeadDefs(f *ir.Func, fa *Facts, rep *Report) {
	lv := liveness(f)
	for _, b := range fa.RPO {
		for idx, in := range b.Instrs {
			switch in.Op {
			case ir.OpConst, ir.OpMov, ir.OpBin, ir.OpCmp, ir.OpSelect:
			default:
				continue
			}
			d := in.Def()
			if d == ir.NoReg {
				continue
			}
			// Dead iff no later instruction in the block reads d before a
			// redefinition, and — absent an in-block redefinition — d is
			// not live out of the block.
			dead, redefined := true, false
			for _, later := range b.Instrs[idx+1:] {
				read := false
				later.Uses(func(r ir.Reg) {
					if r == d {
						read = true
					}
				})
				if read {
					dead = false
					break
				}
				if later.Def() == d {
					redefined = true
					break
				}
			}
			if dead && !redefined && lv.LiveOut(b, d) {
				dead = false
			}
			if dead {
				rep.add(Finding{
					Pass: "liveness", Sev: SevInfo,
					Fn: f, Block: b, InstrIdx: idx,
					Msg: fmt.Sprintf("result r%d is never read (dead definition)", d),
				})
			}
		}
	}
}
