package expr

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestConstFolding(t *testing.T) {
	cases := []struct {
		got  *Expr
		want uint64
	}{
		{Add(Const(2), Const(3)), 5},
		{Sub(Const(2), Const(3)), ^uint64(0)}, // wraps
		{Mul(Const(7), Const(6)), 42},
		{And(Const(0xff0), Const(0x0ff)), 0x0f0},
		{Or(Const(0xf00), Const(0x00f)), 0xf0f},
		{Xor(Const(0xff), Const(0x0f)), 0xf0},
		{Shl(Const(1), Const(8)), 256},
		{Shl(Const(1), Const(64)), 0},
		{Lshr(Const(256), Const(8)), 1},
		{Lshr(Const(1), Const(200)), 0},
		{New(OpUDiv, Const(10), Const(3)), 3},
		{New(OpUDiv, Const(10), Const(0)), 0},
		{New(OpURem, Const(10), Const(3)), 1},
		{New(OpURem, Const(10), Const(0)), 10},
		{Eq(Const(5), Const(5)), 1},
		{Ne(Const(5), Const(5)), 0},
		{Ult(Const(3), Const(5)), 1},
		{Ule(Const(5), Const(5)), 1},
	}
	for i, c := range cases {
		v, ok := c.got.IsConst()
		if !ok {
			t.Errorf("case %d: not folded to const: %v", i, c.got)
			continue
		}
		if v != c.want {
			t.Errorf("case %d: got %#x, want %#x", i, v, c.want)
		}
	}
}

func TestIdentities(t *testing.T) {
	v := Var(1)
	if Add(v, Const(0)) != v {
		t.Error("x+0 != x")
	}
	if Mul(v, Const(1)) != v {
		t.Error("x*1 != x")
	}
	if e, _ := Mul(v, Const(0)).IsConst(); e != 0 {
		t.Error("x*0 != 0")
	}
	if e, _ := And(v, Const(0)).IsConst(); e != 0 {
		t.Error("x&0 != 0")
	}
	if And(v, Const(0xff)) != v {
		t.Error("byte var & 0xff not elided")
	}
	if Or(v, Const(0)) != v {
		t.Error("x|0 != x")
	}
	if e, _ := Xor(v, v).IsConst(); e != 0 {
		t.Error("x^x != 0")
	}
	if e, _ := Sub(v, v).IsConst(); e != 0 {
		t.Error("x-x != 0")
	}
	if e, _ := Eq(v, v).IsConst(); e != 1 {
		t.Error("x==x != 1")
	}
	if e, _ := Ult(v, v).IsConst(); e != 0 {
		t.Error("x<x != 0")
	}
	if e, _ := Ult(v, Const(0)).IsConst(); e != 0 {
		t.Error("x<0 != false")
	}
	if e, _ := Ule(Const(0), v).IsConst(); e != 1 {
		t.Error("0<=x != true")
	}
}

func TestEvalMatchesGoSemantics(t *testing.T) {
	f := func(a, b uint64, x, y uint8) bool {
		vals := map[VarID]uint64{1: uint64(x), 2: uint64(y)}
		va, vb := Var(1), Var(2)
		ea := Add(Mul(va, Const(a)), Const(b))
		if ea.Eval(vals) != uint64(x)*a+b {
			return false
		}
		cmp := Ult(va, vb)
		want := uint64(0)
		if uint64(x) < uint64(y) {
			want = 1
		}
		if cmp.Eval(vals) != want {
			return false
		}
		ite := Ite(cmp, va, vb)
		wantIte := uint64(y)
		if uint64(x) < uint64(y) {
			wantIte = uint64(x)
		}
		return ite.Eval(vals) == wantIte
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNotInvolution(t *testing.T) {
	v, w := Var(1), Var(2)
	for _, e := range []*Expr{Eq(v, w), Ne(v, w), Ult(v, w), Ule(v, w)} {
		n := Not(e)
		vals := map[VarID]uint64{1: 7, 2: 9}
		if e.Eval(vals) == n.Eval(vals) {
			t.Errorf("Not(%v) evaluates same as original", e)
		}
		nn := Not(n)
		if nn.Eval(vals) != e.Eval(vals) {
			t.Errorf("double negation broke %v", e)
		}
	}
	if b, _ := Not(Const(0)).IsConst(); b != 1 {
		t.Error("Not(0) != 1")
	}
	if b, _ := Not(Const(5)).IsConst(); b != 0 {
		t.Error("Not(5) != 0")
	}
}

func TestTruth(t *testing.T) {
	v := Var(1)
	tr := Truth(Add(v, Const(1)))
	if tr.Op != OpNe {
		t.Errorf("Truth of arith = %v", tr)
	}
	if Truth(Eq(v, Const(2))).Op != OpEq {
		t.Error("Truth of cmp should be unchanged")
	}
	if b, _ := Truth(Const(7)).IsConst(); b != 1 {
		t.Error("Truth(7) != 1")
	}
}

func TestVarsAndSubstitute(t *testing.T) {
	e := Add(Mul(Var(1), Var(2)), Ite(Eq(Var(3), Const(0)), Var(1), Var(4)))
	if vars := e.VarList(); !slices.Equal(vars, []VarID{1, 2, 3, 4}) {
		t.Errorf("VarList = %v", vars)
	}
	if e.NumVars() != 4 {
		t.Errorf("NumVars = %d", e.NumVars())
	}
	if !e.HasVars() {
		t.Error("HasVars = false")
	}
	sub := e.Substitute(map[VarID]uint64{1: 2, 2: 3, 3: 0, 4: 9})
	if v, ok := sub.IsConst(); !ok || v != 2*3+2 {
		t.Errorf("Substitute = %v", sub)
	}
	partial := e.Substitute(map[VarID]uint64{1: 2})
	if !partial.HasVars() {
		t.Error("partial substitution should stay symbolic")
	}
}

func TestConcatBytes(t *testing.T) {
	e := ConcatBytes(Const(0x12), Const(0x34), Const(0x56), Const(0x78))
	if v, ok := e.IsConst(); !ok || v != 0x12345678 {
		t.Errorf("ConcatBytes = %v", e)
	}
	// Symbolic concat evaluates to big-endian assembly.
	s := ConcatBytes(Var(1), Var(2))
	got := s.Eval(map[VarID]uint64{1: 0xab, 2: 0xcd})
	if got != 0xabcd {
		t.Errorf("symbolic concat = %#x", got)
	}
}

func TestByteSelect(t *testing.T) {
	e := Const(0x1122334455667788)
	for i := 0; i < 8; i++ {
		want := (0x1122334455667788 >> (8 * i)) & 0xff
		if v, _ := Byte(e, i).IsConst(); v != uint64(want) {
			t.Errorf("Byte(%d) = %#x, want %#x", i, v, want)
		}
	}
}

func TestStringRendering(t *testing.T) {
	e := Add(Var(3), Const(0x10))
	s := e.String()
	if !strings.Contains(s, "add") || !strings.Contains(s, "v3") || !strings.Contains(s, "0x10") {
		t.Errorf("String = %q", s)
	}
	// Deep expressions truncate rather than blow up.
	deep := Var(1)
	for i := 0; i < 100; i++ {
		deep = Add(deep, Var(2))
	}
	if len(deep.String()) > 10000 {
		t.Errorf("deep String too long: %d", len(deep.String()))
	}
}

func TestRangeSoundness(t *testing.T) {
	// Property: Eval result always falls inside Range for random exprs.
	f := func(x, y uint8, k uint16, opSel uint8) bool {
		ops := []Op{OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpLshr, OpURem, OpUDiv}
		op := ops[int(opSel)%len(ops)]
		e := New(op, ConcatBytes(Var(1), Var(2)), Const(uint64(k)))
		vals := map[VarID]uint64{1: uint64(x), 2: uint64(y)}
		iv := Range(e, nil) // fully symbolic
		v := e.Eval(vals)
		if !iv.Contains(v) && iv != Full {
			return false
		}
		ivp := Range(e, map[VarID]uint64{1: uint64(x)}) // partial
		return ivp.Contains(v) || ivp == Full
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestRangeComparisons(t *testing.T) {
	// v1 concat v2 is in [0, 65535]; comparing against disjoint constants
	// must fold the comparison range to a point.
	w := ConcatBytes(Var(1), Var(2))
	if iv := Range(Ult(w, Const(1<<20)), nil); iv.Lo != 1 || iv.Hi != 1 {
		t.Errorf("w < 2^20 range = %+v, want [1,1]", iv)
	}
	if iv := Range(Eq(w, Const(1<<20)), nil); iv.Lo != 0 || iv.Hi != 0 {
		t.Errorf("w == 2^20 range = %+v, want [0,0]", iv)
	}
	if iv := Range(Ne(w, Const(1<<20)), nil); iv.Lo != 1 || iv.Hi != 1 {
		t.Errorf("w != 2^20 range = %+v, want [1,1]", iv)
	}
	if iv := Range(Eq(w, Const(100)), nil); iv.Lo != 0 || iv.Hi != 1 {
		t.Errorf("w == 100 range = %+v, want [0,1]", iv)
	}
}

func TestIntervalOps(t *testing.T) {
	a := Interval{10, 20}
	if !a.Contains(10) || !a.Contains(20) || a.Contains(9) || a.Contains(21) {
		t.Error("Contains broken")
	}
	if _, ok := a.Singleton(); ok {
		t.Error("non-singleton reported singleton")
	}
	if v, ok := (Interval{7, 7}).Singleton(); !ok || v != 7 {
		t.Error("singleton not detected")
	}
	x := a.Intersect(Interval{15, 30})
	if x.Lo != 15 || x.Hi != 20 {
		t.Errorf("Intersect = %+v", x)
	}
	if !a.Intersect(Interval{30, 40}).Empty() {
		t.Error("disjoint intersect not empty")
	}
}

func TestIteSimplify(t *testing.T) {
	v := Var(1)
	if Ite(Const(1), v, Const(9)) != v {
		t.Error("ite(true) not folded")
	}
	if e, _ := Ite(Const(0), v, Const(9)).IsConst(); e != 9 {
		t.Error("ite(false) not folded")
	}
	if Ite(Eq(v, Const(1)), v, v) != v {
		t.Error("ite same-arms not folded")
	}
}

func TestEqWithBoolConstRewrites(t *testing.T) {
	c := Ult(Var(1), Var(2))
	if Eq(c, Const(1)) != c {
		t.Error("eq(cmp,1) should be cmp")
	}
	n := Eq(c, Const(0))
	vals := map[VarID]uint64{1: 3, 2: 5}
	if n.Eval(vals) != 0 {
		t.Error("eq(cmp,0) wrong")
	}
	if v, _ := Eq(c, Const(7)).IsConst(); v != 0 {
		t.Error("eq(cmp,7) should be 0")
	}
}

func TestBitwiseBoundsTight(t *testing.T) {
	// Brute-force check of the Hacker's Delight OR/AND interval bounds on
	// small ranges.
	ranges := []Interval{{0, 0}, {3, 7}, {5, 5}, {0, 15}, {8, 12}, {1, 2}}
	for _, ra := range ranges {
		for _, rb := range ranges {
			var wantOrLo, wantOrHi, wantAndLo, wantAndHi uint64
			wantOrLo, wantAndLo = ^uint64(0), ^uint64(0)
			for x := ra.Lo; x <= ra.Hi; x++ {
				for y := rb.Lo; y <= rb.Hi; y++ {
					if o := x | y; o < wantOrLo {
						wantOrLo = o
					}
					if o := x | y; o > wantOrHi {
						wantOrHi = o
					}
					if a := x & y; a < wantAndLo {
						wantAndLo = a
					}
					if a := x & y; a > wantAndHi {
						wantAndHi = a
					}
				}
			}
			if got := minOR(ra.Lo, ra.Hi, rb.Lo, rb.Hi); got != wantOrLo {
				t.Errorf("minOR(%v,%v) = %d, want %d", ra, rb, got, wantOrLo)
			}
			if got := maxOR(ra.Lo, ra.Hi, rb.Lo, rb.Hi); got != wantOrHi {
				t.Errorf("maxOR(%v,%v) = %d, want %d", ra, rb, got, wantOrHi)
			}
			if got := minAND(ra.Lo, ra.Hi, rb.Lo, rb.Hi); got != wantAndLo {
				t.Errorf("minAND(%v,%v) = %d, want %d", ra, rb, got, wantAndLo)
			}
			if got := maxAND(ra.Lo, ra.Hi, rb.Lo, rb.Hi); got != wantAndHi {
				t.Errorf("maxAND(%v,%v) = %d, want %d", ra, rb, got, wantAndHi)
			}
		}
	}
}

func TestByteConcatCollapse(t *testing.T) {
	// Byte extraction from a byte concatenation must collapse back to the
	// original variable node — the rewrite that keeps memory round-trips
	// (store word, load byte) from snowballing expression sizes.
	vs := []*Expr{Var(1), Var(2), Var(3), Var(4)}
	w := ConcatBytes(vs...)
	for i := 0; i < 4; i++ {
		got := Byte(w, 3-i)
		if got != vs[i] {
			t.Errorf("Byte(concat, %d) = %v, want v%d", 3-i, got, i+1)
		}
	}
}

func TestMaskSoundness(t *testing.T) {
	// Property: Eval result never has bits outside the node's mask.
	f := func(x, y uint8, k uint16, opSel uint8) bool {
		ops := []Op{OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpShl, OpLshr, OpURem, OpUDiv, OpUlt}
		op := ops[int(opSel)%len(ops)]
		e := New(op, ConcatBytes(Var(1), Var(2)), Const(uint64(k%64)))
		vals := map[VarID]uint64{1: uint64(x), 2: uint64(y)}
		return e.Eval(vals)&^e.Mask() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestRewriteEvalEquivalence(t *testing.T) {
	// Property: the simplifying constructors preserve semantics on nested
	// shift/mask/or pyramids (the shapes memory round-trips produce).
	f := func(x, y, z uint8, sh1, sh2 uint8, m uint32) bool {
		vals := map[VarID]uint64{1: uint64(x), 2: uint64(y), 3: uint64(z)}
		w := ConcatBytes(Var(1), Var(2), Var(3))
		s1, s2 := uint64(sh1%40), uint64(sh2%40)
		e := And(Lshr(Shl(w, Const(s1)), Const(s2)), Const(uint64(m)))
		want := (((uint64(x)<<16 | uint64(y)<<8 | uint64(z)) << s1) >> s2) & uint64(m)
		return e.Eval(vals) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}
