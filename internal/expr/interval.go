package expr

import "math/bits"

// highBit returns the highest set bit of v as a mask (v must be nonzero).
func highBit(v uint64) uint64 {
	return uint64(1) << (63 - bits.LeadingZeros64(v))
}

// Interval is an unsigned 64-bit range [Lo, Hi]. Intervals are used by the
// solver to prune infeasible partial assignments cheaply and by the
// symbolic pointer concretizer to bound candidate addresses.
type Interval struct {
	Lo, Hi uint64
}

// Full is the unconstrained interval.
var Full = Interval{0, ^uint64(0)}

// Contains reports whether v lies in the interval.
func (iv Interval) Contains(v uint64) bool { return v >= iv.Lo && v <= iv.Hi }

// Singleton reports whether the interval pins exactly one value.
func (iv Interval) Singleton() (uint64, bool) {
	if iv.Lo == iv.Hi {
		return iv.Lo, true
	}
	return 0, false
}

// Empty reports whether the interval contains no values (Lo > Hi).
func (iv Interval) Empty() bool { return iv.Lo > iv.Hi }

// Intersect returns the intersection (possibly empty).
func (iv Interval) Intersect(o Interval) Interval {
	lo, hi := iv.Lo, iv.Hi
	if o.Lo > lo {
		lo = o.Lo
	}
	if o.Hi < hi {
		hi = o.Hi
	}
	return Interval{lo, hi}
}

// Range computes a sound over-approximation of e's value range under a
// partial assignment: variables present in vals are pinned; others range
// over [0,255]. Soundness means the true value always lies within the
// returned interval; precision is best-effort (wrap-around falls back to
// Full).
func Range(e *Expr, vals map[VarID]uint64) Interval {
	switch e.Op {
	case OpConst:
		return Interval{e.Val, e.Val}
	case OpVar:
		if v, ok := vals[e.Var]; ok {
			v &= 0xff
			return Interval{v, v}
		}
		return Interval{0, 255}
	case OpIte:
		c := Range(e.A, vals)
		if v, ok := c.Singleton(); ok {
			if v != 0 {
				return Range(e.B, vals)
			}
			return Range(e.C, vals)
		}
		return rangeIte(c, Range(e.B, vals), Range(e.C, vals))
	}
	return rangeBin(e.Op, Range(e.A, vals), Range(e.B, vals))
}

// rangeIte is Range's transfer function for OpIte given the three
// operand intervals.
func rangeIte(c, t, f Interval) Interval {
	if v, ok := c.Singleton(); ok {
		if v != 0 {
			return t
		}
		return f
	}
	lo, hi := t.Lo, t.Hi
	if f.Lo < lo {
		lo = f.Lo
	}
	if f.Hi > hi {
		hi = f.Hi
	}
	return Interval{lo, hi}
}

// rangeBin is Range's transfer function for the binary ops: the one
// definition both the tree walk above and Program.Range evaluate.
func rangeBin(op Op, a, b Interval) Interval {
	switch op {
	case OpAdd:
		lo, hi := a.Lo+b.Lo, a.Hi+b.Hi
		if hi < a.Hi || lo > hi { // wrapped
			return Full
		}
		return Interval{lo, hi}
	case OpSub:
		if a.Lo >= b.Hi {
			return Interval{a.Lo - b.Hi, a.Hi - b.Lo}
		}
		return Full
	case OpMul:
		if a.Hi == 0 || b.Hi == 0 {
			return Interval{0, 0}
		}
		hi := a.Hi * b.Hi
		if a.Hi != 0 && hi/a.Hi != b.Hi { // overflow
			return Full
		}
		return Interval{a.Lo * b.Lo, hi}
	case OpAnd:
		return Interval{minAND(a.Lo, a.Hi, b.Lo, b.Hi), maxAND(a.Lo, a.Hi, b.Lo, b.Hi)}
	case OpOr:
		return Interval{minOR(a.Lo, a.Hi, b.Lo, b.Hi), maxOR(a.Lo, a.Hi, b.Lo, b.Hi)}
	case OpXor:
		// x^y <= x|y, and the OR bound is cheap and sound.
		return Interval{0, maxOR(a.Lo, a.Hi, b.Lo, b.Hi)}
	case OpShl:
		if s, ok := b.Singleton(); ok {
			if s >= 64 {
				return Interval{0, 0}
			}
			hi := a.Hi << s
			if hi>>s != a.Hi {
				return Full
			}
			return Interval{a.Lo << s, hi}
		}
		return Full
	case OpLshr:
		if s, ok := b.Singleton(); ok {
			if s >= 64 {
				return Interval{0, 0}
			}
			return Interval{a.Lo >> s, a.Hi >> s}
		}
		return Interval{0, a.Hi}
	case OpUDiv:
		if bs, ok := b.Singleton(); ok && bs != 0 {
			return Interval{a.Lo / bs, a.Hi / bs}
		}
		return Interval{0, a.Hi}
	case OpURem:
		if bs, ok := b.Singleton(); ok && bs != 0 {
			if a.Hi < bs {
				return a
			}
			return Interval{0, bs - 1}
		}
		return Interval{0, a.Hi}
	case OpEq:
		if a.Hi < b.Lo || b.Hi < a.Lo {
			return Interval{0, 0} // disjoint: cannot be equal
		}
		if as, ok := a.Singleton(); ok {
			if bs, ok2 := b.Singleton(); ok2 {
				return Interval{b2u(as == bs), b2u(as == bs)}
			}
		}
		return Interval{0, 1}
	case OpNe:
		if a.Hi < b.Lo || b.Hi < a.Lo {
			return Interval{1, 1}
		}
		if as, ok := a.Singleton(); ok {
			if bs, ok2 := b.Singleton(); ok2 {
				return Interval{b2u(as != bs), b2u(as != bs)}
			}
		}
		return Interval{0, 1}
	case OpUlt:
		if a.Hi < b.Lo {
			return Interval{1, 1}
		}
		if a.Lo >= b.Hi {
			return Interval{0, 0}
		}
		return Interval{0, 1}
	case OpUle:
		if a.Hi <= b.Lo {
			return Interval{1, 1}
		}
		if a.Lo > b.Hi {
			return Interval{0, 0}
		}
		return Interval{0, 1}
	}
	return Full
}

// The four functions below compute tight bounds for bitwise OR/AND of two
// independent intervals [a,b] and [c,d] (Hacker's Delight, section 4-3).
// HD steps a one-bit mask m down from bit 63 and, where a guard on the
// operands' bits holds, tries to move one bound: raise a (or c) to
// t = (a|m)&^(m-1), or lower b (or d) to t = (b&^m)|(m-1), if t stays
// inside its interval. The operands change only on the iteration that
// breaks, so which positions pass the guard is known up front, and a
// try on [a,b] can only succeed at or below the highest bit where a and
// b differ: above it t agrees with both bounds except at m itself,
// which puts it outside. Each loop therefore visits only the positions
// that can fire — the set bits of one word, highest first — and
// returns exactly what the 64-step loop returns; with both operands
// pinned it does not iterate at all. FuzzIntervalKernels keeps the
// textbook loops as the oracle.

func minOR(a, b, c, d uint64) uint64 {
	for cand := ^a&c&coverMask(a^b) | a&^c&coverMask(c^d); cand != 0; {
		m := highBit(cand)
		cand &^= m
		if c&m != 0 {
			if t := (a | m) &^ (m - 1); t <= b {
				a = t
				break
			}
		} else {
			if t := (c | m) &^ (m - 1); t <= d {
				c = t
				break
			}
		}
	}
	return a | c
}

func maxOR(a, b, c, d uint64) uint64 {
	for cand := b & d & coverMask((a^b)|(c^d)); cand != 0; {
		m := highBit(cand)
		cand &^= m
		if t := (b - m) | (m - 1); t >= a {
			b = t
			break
		}
		if t := (d - m) | (m - 1); t >= c {
			d = t
			break
		}
	}
	return b | d
}

func minAND(a, b, c, d uint64) uint64 {
	for cand := ^a & ^c & coverMask((a^b)|(c^d)); cand != 0; {
		m := highBit(cand)
		cand &^= m
		if t := (a | m) &^ (m - 1); t <= b {
			a = t
			break
		}
		if t := (c | m) &^ (m - 1); t <= d {
			c = t
			break
		}
	}
	return a & c
}

func maxAND(a, b, c, d uint64) uint64 {
	for cand := b&^d&coverMask(a^b) | ^b&d&coverMask(c^d); cand != 0; {
		m := highBit(cand)
		cand &^= m
		if b&m != 0 {
			if t := (b &^ m) | (m - 1); t >= a {
				b = t
				break
			}
		} else {
			if t := (d &^ m) | (m - 1); t >= c {
				d = t
				break
			}
		}
	}
	return b & d
}
