package expr

import (
	"math/rand"
	"testing"
)

// randomDAG builds an expression over nvars variables using every op,
// Ite included, re-using earlier sub-DAGs so the result is a DAG and not
// a tree. Interior nodes are sometimes assembled raw, bypassing New's
// folding, so that ground interior nodes and shapes the constructors
// would rewrite reach the compiler too.
func randomDAG(rng *rand.Rand, nvars, size int) *Expr {
	ops := []Op{
		OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpShl, OpLshr, OpUDiv, OpURem,
		OpEq, OpNe, OpUlt, OpUle,
	}
	pool := make([]*Expr, 0, size+nvars)
	for v := 0; v < nvars; v++ {
		pool = append(pool, Var(VarID(v*5+2)))
	}
	pick := func() *Expr {
		switch rng.Intn(8) {
		case 0:
			return Const(rng.Uint64() >> uint(rng.Intn(64)))
		case 1:
			return Var(VarID(rng.Intn(nvars)*5 + 2)) // a second node for the same variable
		}
		return pool[rng.Intn(len(pool))]
	}
	raw := func(op Op, a, b, c *Expr) *Expr {
		e := &Expr{Op: op, A: a, B: b, C: c, msk: ^uint64(0)}
		e.fp = fpMix(uint64(op), a.fp, b.fp)
		return e
	}
	for len(pool) < cap(pool) {
		var e *Expr
		switch r := rng.Intn(10); {
		case r == 0:
			e = Ite(pick(), pick(), pick())
		case r == 1:
			e = raw(OpIte, pick(), pick(), pick())
		case r == 2:
			e = raw(ops[rng.Intn(len(ops))], pick(), pick(), nil)
		default:
			e = New(ops[rng.Intn(len(ops))], pick(), pick())
		}
		pool = append(pool, e)
	}
	return pool[len(pool)-1]
}

// rangeOver is Range's tree walk with variable v ranging over `over`
// whatever vals says of it.
func rangeOver(e *Expr, vals map[VarID]uint64, v VarID, over Interval) Interval {
	switch e.Op {
	case OpConst:
		return Interval{e.Val, e.Val}
	case OpVar:
		if e.Var == v {
			return over
		}
		return Range(e, vals)
	case OpIte:
		return rangeIte(rangeOver(e.A, vals, v, over), rangeOver(e.B, vals, v, over), rangeOver(e.C, vals, v, over))
	}
	return rangeBin(e.Op, rangeOver(e.A, vals, v, over), rangeOver(e.B, vals, v, over))
}

// TestProgramMatchesTreeWalk: a compiled Program gives exactly Expr.Eval
// and Range, and RangeOver exactly Range with one variable's leaf
// widened — on random DAGs, under random partial assignments, and across
// sequences of small state changes, where it recomputes only the dirty
// part and must still agree.
func TestProgramMatchesTreeWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var compiler Compiler // reused, as the solver reuses its own
	for i := 0; i < 3000; i++ {
		nvars := 1 + rng.Intn(9)
		if i%100 == 0 {
			nvars = 60 + rng.Intn(30) // past the 64 dep bits
		}
		e := randomDAG(rng, nvars, 4+rng.Intn(40))
		vars := e.VarList()
		// The program reads its variables from scattered slots of a larger
		// state vector, as the solver's do.
		slots := make([]int32, len(vars))
		for j, s := range rng.Perm(len(vars) + 3)[:len(vars)] {
			slots[j] = int32(s)
		}
		state := make([]uint16, len(vars)+3)
		for j := range state {
			state[j] = Free
		}
		prog := compiler.Compile(e, slots)
		vals := map[VarID]uint64{}
		for step := 0; step < 24; step++ {
			// Move a few variables: pin, re-pin or free.
			for n := 1 + rng.Intn(3); n > 0 && len(vars) > 0; n-- {
				j := rng.Intn(len(vars))
				if rng.Intn(4) == 0 {
					state[slots[j]] = Free
					delete(vals, vars[j])
				} else {
					b := uint16(rng.Intn(256))
					state[slots[j]] = b
					vals[vars[j]] = uint64(b)
				}
			}
			// Widen one variable to an interval, sometimes twice in a row
			// and sometimes the same one: the next Range must not see it.
			for n := rng.Intn(3); n > 0 && len(vars) > 0; n-- {
				j := rng.Intn(len(vars))
				lo, hi := uint64(rng.Intn(256)), uint64(rng.Intn(256))
				over := Interval{min(lo, hi), max(lo, hi)}
				if got, want := prog.RangeOver(state, slots[j], over), rangeOver(e, vals, vars[j], over); got != want {
					t.Fatalf("dag %d step %d: Program.RangeOver %v, Range %v with v%d over %v\n%v under %v", i, step, got, want, vars[j], over, e, vals)
				}
			}
			if rng.Intn(3) > 0 {
				if got, want := prog.Range(state), Range(e, vals); got != want {
					t.Fatalf("dag %d step %d: Program.Range %v, Range %v\n%v under %v", i, step, got, want, e, vals)
				}
			}
			if rng.Intn(3) > 0 {
				if got, want := prog.Eval(state), e.Eval(vals); got != want {
					t.Fatalf("dag %d step %d: Program.Eval %#x, Expr.Eval %#x\n%v under %v", i, step, got, want, e, vals)
				}
			}
		}
		// The same program, rebound to other slots of a second state
		// vector (the next query posing this node), then back: each
		// binding must match the tree walk of its own assignment. The
		// random draws come from their own source, so the cases above
		// stay what they were.
		checkRebound(t, rand.New(rand.NewSource(int64(i))), i, e, prog, slots, state, vals)
	}
}

// checkRebound moves prog between the binding (slots, state) it was
// compiled with and a second one, changing a few variables of whichever
// binding is current between calls, and holds every Eval, Range and
// RangeOver to the tree walk of that binding's assignment.
func checkRebound(t *testing.T, rng *rand.Rand, i int, e *Expr, prog *Program, slots []int32, state []uint16, vals map[VarID]uint64) {
	t.Helper()
	vars := e.VarList()
	type binding struct {
		slots []int32
		state []uint16
		vals  map[VarID]uint64
	}
	second := binding{make([]int32, len(vars)), make([]uint16, len(vars)+5), map[VarID]uint64{}}
	for j, s := range rng.Perm(len(vars) + 5)[:len(vars)] {
		second.slots[j] = int32(s)
	}
	for j := range second.state {
		second.state[j] = Free
	}
	// Some variables start where the first binding left them, so a
	// rebind dirties only part of the program.
	for j, v := range vars {
		if b, ok := vals[v]; ok && rng.Intn(2) == 0 {
			second.state[second.slots[j]] = uint16(b)
			second.vals[v] = b
		}
	}
	bindings := [2]binding{{slots, state, vals}, second}
	for step := 0; step < 12; step++ {
		cur := &bindings[(step+1)%2]
		prog.Rebind(cur.slots)
		for n := rng.Intn(3); n > 0 && len(vars) > 0; n-- {
			j := rng.Intn(len(vars))
			if rng.Intn(4) == 0 {
				cur.state[cur.slots[j]] = Free
				delete(cur.vals, vars[j])
			} else {
				b := uint16(rng.Intn(256))
				cur.state[cur.slots[j]] = b
				cur.vals[vars[j]] = uint64(b)
			}
		}
		if len(vars) > 0 && rng.Intn(2) == 0 {
			j := rng.Intn(len(vars))
			lo, hi := uint64(rng.Intn(256)), uint64(rng.Intn(256))
			over := Interval{min(lo, hi), max(lo, hi)}
			if got, want := prog.RangeOver(cur.state, cur.slots[j], over), rangeOver(e, cur.vals, vars[j], over); got != want {
				t.Fatalf("dag %d rebind %d: Program.RangeOver %v, Range %v with v%d over %v\n%v under %v", i, step, got, want, vars[j], over, e, cur.vals)
			}
		}
		if got, want := prog.Range(cur.state), Range(e, cur.vals); got != want {
			t.Fatalf("dag %d rebind %d: Program.Range %v, Range %v\n%v under %v", i, step, got, want, e, cur.vals)
		}
		if got, want := prog.Eval(cur.state), e.Eval(cur.vals); got != want {
			t.Fatalf("dag %d rebind %d: Program.Eval %#x, Expr.Eval %#x\n%v under %v", i, step, got, want, e, cur.vals)
		}
	}
}

// TestProgramSharesAndFolds pins the flattening itself: one leaf per
// variable however many Var nodes name it, a shared sub-DAG emitted
// once, a ground subtree folded to a single node.
func TestProgramSharesAndFolds(t *testing.T) {
	x := Add(Var(1), Var(2))
	ground := &Expr{Op: OpAdd, A: Const(^uint64(0)), B: Const(1)} // wraps: Eval 0, Range Full
	e := Ult(Mul(x, x), Or(Shl(Var(1), Const(8)), ground))
	var c Compiler
	p := c.Compile(e, []int32{0, 1})
	// v1, v2, add, mul, 8, shl, ground, or, ult
	if got := len(p.nodes); got != 9 {
		t.Fatalf("program has %d nodes, want 9: %+v", got, p.nodes)
	}
	if len(c.ground) != 2 {
		t.Fatalf("compiler met %d ground subtrees, want 2 (the shift amount and the wrapped sum)", len(c.ground))
	}
	g := c.ground[1]
	if g.val != 0 || g.rng != Full || p.val[g.node] != 0 || p.iv[g.node] != Full {
		t.Fatalf("wrapped ground sum folded to val %#x range %v, want 0 and Full (the two semantics differ)", g.val, g.rng)
	}
}

// BenchmarkProgramRange is BenchmarkRange's comparison compiled, moving
// a low key byte between calls the way the solver's value loop does:
// only the top of the concat is recomputed.
func BenchmarkProgramRange(b *testing.B) {
	bs := make([]*Expr, 8)
	for i := range bs {
		bs[i] = Var(VarID(i))
	}
	prog := new(Compiler).Compile(Ult(ConcatBytes(bs...), Const(0x1011121314150000)), []int32{0, 1, 2, 3, 4, 5, 6, 7})
	state := []uint16{0x10, 0x11, 0x12, 0x13, 0x14, 0x15, Free, Free}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		state[6] = uint16(i & 0xff)
		sinkU64 += prog.Range(state).Hi
	}
}
