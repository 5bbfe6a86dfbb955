package solver

import (
	"testing"
	"testing/quick"

	"castan/internal/budget"
	"castan/internal/expr"
)

func word(ids ...expr.VarID) *expr.Expr {
	bs := make([]*expr.Expr, len(ids))
	for i, id := range ids {
		bs[i] = expr.Var(id)
	}
	return expr.ConcatBytes(bs...)
}

func checkModel(t *testing.T, cons []*expr.Expr, m Model) {
	t.Helper()
	for i, c := range cons {
		if expr.Truth(c).Eval(m) == 0 {
			t.Errorf("constraint %d (%v) violated by model %v", i, c, m)
		}
	}
}

func TestTrivial(t *testing.T) {
	var s Solver
	if r, _ := s.Check(nil); r != Sat {
		t.Error("empty system should be sat")
	}
	if r, _ := s.Check([]*expr.Expr{expr.Const(1)}); r != Sat {
		t.Error("true constant should be sat")
	}
	if r, _ := s.Check([]*expr.Expr{expr.Const(0)}); r != Unsat {
		t.Error("false constant should be unsat")
	}
}

func TestSimpleEquality(t *testing.T) {
	var s Solver
	cons := []*expr.Expr{expr.Eq(expr.Var(1), expr.Const(0x42))}
	r, m := s.Check(cons)
	if r != Sat {
		t.Fatalf("result = %v", r)
	}
	if m[1] != 0x42 {
		t.Errorf("model = %v", m)
	}
}

func TestWordEquality(t *testing.T) {
	var s Solver
	// 32-bit word from 4 bytes must equal 0xc0a80117 (192.168.1.23).
	w := word(1, 2, 3, 4)
	cons := []*expr.Expr{expr.Eq(w, expr.Const(0xc0a80117))}
	r, m := s.Check(cons)
	if r != Sat {
		t.Fatalf("result = %v", r)
	}
	checkModel(t, cons, m)
	if m[1] != 0xc0 || m[2] != 0xa8 || m[3] != 0x01 || m[4] != 0x17 {
		t.Errorf("model = %v", m)
	}
}

func TestMaskedEquality(t *testing.T) {
	// (word & 0xffffff00) == 0x0a000100 — a /24 prefix constraint, as
	// produced by pointer concretization over an LPM table.
	var s Solver
	w := word(1, 2, 3, 4)
	cons := []*expr.Expr{
		expr.Eq(expr.And(w, expr.Const(0xffffff00)), expr.Const(0x0a000100)),
	}
	r, m := s.Check(cons)
	if r != Sat {
		t.Fatalf("result = %v", r)
	}
	checkModel(t, cons, m)
}

func TestUnsatRange(t *testing.T) {
	var s Solver
	// A 16-bit word can never exceed 65535.
	cons := []*expr.Expr{expr.Ult(expr.Const(1<<20), word(1, 2))}
	if r, _ := s.Check(cons); r != Unsat {
		t.Errorf("result = %v, want unsat", r)
	}
}

func TestUnsatConflict(t *testing.T) {
	var s Solver
	v := expr.Var(1)
	cons := []*expr.Expr{
		expr.Eq(v, expr.Const(3)),
		expr.Eq(v, expr.Const(4)),
	}
	if r, _ := s.Check(cons); r != Unsat {
		t.Errorf("result = %v, want unsat", r)
	}
}

func TestDisequalities(t *testing.T) {
	// 10 words over the same byte pair, all pinned to distinct values:
	// like flow-uniqueness constraints in CASTAN workloads.
	var s Solver
	var cons []*expr.Expr
	words := make([]*expr.Expr, 10)
	for i := range words {
		words[i] = word(expr.VarID(2*i+1), expr.VarID(2*i+2))
		cons = append(cons, expr.Ult(words[i], expr.Const(1000)))
	}
	for i := range words {
		for j := i + 1; j < len(words); j++ {
			cons = append(cons, expr.Ne(words[i], words[j]))
		}
	}
	r, m := s.Check(cons)
	if r != Sat {
		t.Fatalf("result = %v", r)
	}
	checkModel(t, cons, m)
	seen := map[uint64]bool{}
	for _, w := range words {
		v := w.Eval(m)
		if seen[v] {
			t.Fatalf("duplicate word value %d", v)
		}
		seen[v] = true
	}
}

func TestOrderingChain(t *testing.T) {
	// b1 < b2 < b3 < b4 — skew-inducing tree insertion order.
	var s Solver
	cons := []*expr.Expr{
		expr.Ult(expr.Var(1), expr.Var(2)),
		expr.Ult(expr.Var(2), expr.Var(3)),
		expr.Ult(expr.Var(3), expr.Var(4)),
	}
	r, m := s.Check(cons)
	if r != Sat {
		t.Fatalf("result = %v", r)
	}
	checkModel(t, cons, m)
}

func TestArithmetic(t *testing.T) {
	var s Solver
	// v1 + v2 == 100 and v1 * 2 == v2.
	v1, v2 := expr.Var(1), expr.Var(2)
	cons := []*expr.Expr{
		expr.Eq(expr.Add(v1, v2), expr.Const(99)),
		expr.Eq(expr.Mul(v1, expr.Const(2)), v2),
	}
	r, m := s.Check(cons)
	if r != Sat {
		t.Fatalf("result = %v", r)
	}
	checkModel(t, cons, m)
	if m[1] != 33 || m[2] != 66 {
		t.Errorf("model = %v", m)
	}
}

func TestModuloConstraint(t *testing.T) {
	// Hash-bucket style: (word % 4096) == 77.
	var s Solver
	w := word(1, 2, 3, 4)
	cons := []*expr.Expr{
		expr.Eq(expr.New(expr.OpURem, w, expr.Const(4096)), expr.Const(77)),
	}
	r, m := s.Check(cons)
	if r != Sat {
		t.Fatalf("result = %v", r)
	}
	checkModel(t, cons, m)
}

func TestSolveErrors(t *testing.T) {
	var s Solver
	if _, err := s.Solve([]*expr.Expr{expr.Const(0)}); err == nil {
		t.Error("unsat Solve returned nil error")
	}
	if m, err := s.Solve([]*expr.Expr{expr.Eq(expr.Var(1), expr.Const(9))}); err != nil || m[1] != 9 {
		t.Errorf("Solve = %v, %v", m, err)
	}
}

func TestBudgetUnknown(t *testing.T) {
	// A satisfiable, non-trivially-true system over three variables. Any
	// satisfying search must assign all three, and each assignment costs
	// at least one step (search increments steps before every value try,
	// and the budget check is steps > budget), so with MaxSteps: 1 a Sat
	// outcome is impossible: the search runs out of budget during or
	// before its second decision. Unsat is equally impossible — the
	// system has models (e.g. v1=100, v2=0, v3=150) and the interval
	// pre-pass cannot refute a satisfiable system. Unknown is therefore
	// the only reachable outcome, deterministically.
	cons := []*expr.Expr{
		expr.Eq(expr.Add(expr.Var(1), expr.Var(2)), expr.Const(100)),
		expr.Eq(expr.Add(expr.Var(2), expr.Var(3)), expr.Const(150)),
	}
	s := Solver{MaxSteps: 1}
	r, m := s.Check(cons)
	if r != Unknown {
		t.Fatalf("Check = %v, want unknown", r)
	}
	if m != nil {
		t.Fatalf("Unknown returned a model: %v", m)
	}
	// Solve surfaces the same outcome as ErrBudget.
	if _, err := s.Solve(cons); err != ErrBudget {
		t.Fatalf("Solve err = %v, want ErrBudget", err)
	}
	// A real budget solves the same system — the Unknown above was the
	// budget's doing, not the system's.
	full := Solver{}
	r, m = full.Check(cons)
	if r != Sat {
		t.Fatalf("unbudgeted Check = %v, want sat", r)
	}
	checkModel(t, cons, m)
}

func TestBudgetStageCharging(t *testing.T) {
	m := budget.New(0)
	stage := m.Stage(budget.StageSolver)
	s := Solver{Budget: stage}
	cons := []*expr.Expr{expr.Eq(expr.Var(1), expr.Const(9))}
	if r, _ := s.Check(cons); r != Sat {
		t.Fatal("sat system did not solve")
	}
	if stage.Used() == 0 {
		t.Fatal("no ticks charged for a solved query")
	}
	// Exhausted stage → immediate Unknown, no further charges.
	lim := budget.New(1)
	limStage := lim.Stage(budget.StageSolver)
	limStage.Charge(1)
	s2 := Solver{Budget: limStage}
	if r, _ := s2.Check(cons); r != Unknown {
		t.Fatal("exhausted budget did not force Unknown")
	}
	if limStage.Used() != 1 {
		t.Fatalf("exhausted query still charged: %d", limStage.Used())
	}
}

func TestForceUnknownHook(t *testing.T) {
	calls := 0
	s := Solver{ForceUnknown: func() bool { calls++; return calls > 1 }}
	cons := []*expr.Expr{expr.Eq(expr.Var(1), expr.Const(9))}
	if r, _ := s.Check(cons); r != Sat {
		t.Fatal("first query should pass through")
	}
	if r, _ := s.Check(cons); r != Unknown {
		t.Fatal("hook did not force Unknown")
	}
	if _, err := s.Solve(cons); err != ErrBudget {
		t.Fatalf("Solve err = %v, want ErrBudget", err)
	}
}

// TestQuickFeasible: interval analysis refutes a constraint that is
// false or out of range on its own, and top-level v == c constraints
// pin their variable for a second pass, which refutes a multi-byte word
// the pins contradict (the shape reconciliation's forced-key queries
// take) and two pins that disagree on one variable.
func TestQuickFeasible(t *testing.T) {
	v := expr.Var
	c := expr.Const
	pin := func(id expr.VarID, k uint64) *expr.Expr { return expr.Eq(v(id), c(k)) }
	// A ring slot address: base + ((b0 & 0xf) << 8 | b1) * 8.
	slot := expr.Add(c(0x1000a000), expr.Mul(expr.Or(expr.Shl(expr.And(v(254), c(0xf)), c(8)), v(255)), c(8)))
	for _, tc := range []struct {
		name string
		cons []*expr.Expr
		want Result
	}{
		{"constant false", []*expr.Expr{c(0)}, Unsat},
		{"word out of range", []*expr.Expr{expr.Ult(c(1<<20), word(1, 2))}, Unsat},
		{"feasible pin", []*expr.Expr{pin(1, 3)}, Unknown},
		{"slot address refuted by its pins",
			[]*expr.Expr{expr.Eq(slot, c(0x1000a000)), pin(254, 3), pin(255, 7)}, Unsat},
		{"slot address left open by one pin",
			[]*expr.Expr{expr.Eq(slot, c(0x1000a000)), pin(254, 0x30)}, Unknown},
		{"word refuted, pin first, constant on the left",
			[]*expr.Expr{expr.Eq(c(5), v(1)), expr.Eq(word(1, 2), c(0x0607))}, Unsat},
		{"word consistent with its pin",
			[]*expr.Expr{pin(1, 6), expr.Eq(word(1, 2), c(0x0607))}, Unknown},
		{"word bound refuted",
			[]*expr.Expr{pin(1, 9), pin(2, 0), expr.Ult(word(1, 2, 3), c(0x090000))}, Unsat},
		{"conflicting pins",
			[]*expr.Expr{pin(1, 3), pin(2, 3), pin(1, 4)}, Unsat},
		{"conflicting pins, operands swapped",
			[]*expr.Expr{pin(1, 3), expr.Eq(c(4), v(1))}, Unsat},
		{"repeated pin",
			[]*expr.Expr{pin(1, 3), pin(1, 3), expr.Ne(word(1, 2), c(0x0300))}, Unknown},
		{"pins on other variables",
			[]*expr.Expr{pin(7, 1), pin(8, 2), expr.Eq(word(1, 2), c(0x0102))}, Unknown},
	} {
		if got := QuickFeasible(tc.cons); got != tc.want {
			t.Errorf("%s: QuickFeasible = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestRandomSatSystems(t *testing.T) {
	// Property: for random target values, solving "word == target" and
	// derived inequalities always yields a valid model.
	f := func(target uint32, low uint8) bool {
		var s Solver
		w := word(1, 2, 3, 4)
		cons := []*expr.Expr{
			expr.Eq(w, expr.Const(uint64(target))),
			expr.Ule(expr.Const(uint64(low)), expr.Var(1)),
		}
		r, m := s.Check(cons)
		if uint64(target)>>24 < uint64(low) {
			return r == Unsat
		}
		if r != Sat {
			return false
		}
		for _, c := range cons {
			if expr.Truth(c).Eval(m) == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestResultString(t *testing.T) {
	if Sat.String() != "sat" || Unsat.String() != "unsat" || Unknown.String() != "unknown" {
		t.Error("Result.String broken")
	}
}

func TestHintSteersModel(t *testing.T) {
	// With a hint that satisfies the system, the model should keep the
	// hinted values instead of defaulting to minimal ones.
	v1, v2 := expr.Var(1), expr.Var(2)
	cons := []*expr.Expr{expr.Ne(v1, v2)}
	hint := Model{1: 0xaa, 2: 0x10}
	_ = hint
	s := Solver{Hint: Model{1: 0xaa, 2: 0x10}}
	res, m := s.Check(cons)
	if res != Sat {
		t.Fatal(res)
	}
	if m[1] != 0xaa || m[2] != 0x10 {
		t.Errorf("model ignored hint: %v", m)
	}
}

func TestIntervalPrePassRefutesWindows(t *testing.T) {
	// Structurally identical words under conflicting windows must be
	// refuted instantly even with a tiny budget. The two word expressions
	// are built independently (distinct pointers, same fingerprint).
	mkWord := func() *expr.Expr { return word(1, 2, 3, 4) }
	cons := []*expr.Expr{
		expr.Ule(mkWord(), expr.Const(100)),
		expr.Ult(expr.Const(200), mkWord()),
	}
	s := Solver{MaxSteps: 10}
	res, _ := s.Check(cons)
	if res != Unsat {
		t.Fatalf("window conflict not refuted by pre-pass: %v", res)
	}
	// Eq against the window also refutes.
	cons = []*expr.Expr{
		expr.Eq(mkWord(), expr.Const(300)),
		expr.Ult(mkWord(), expr.Const(50)),
	}
	if res, _ := s.Check(cons); res != Unsat {
		t.Fatalf("eq/window conflict not refuted: %v", res)
	}
	// Compatible windows stay solvable.
	cons = []*expr.Expr{
		expr.Ule(expr.Const(100), mkWord()),
		expr.Ult(mkWord(), expr.Const(120)),
	}
	big := Solver{}
	res, m := big.Check(cons)
	if res != Sat {
		t.Fatalf("compatible windows unsolved: %v", res)
	}
	v := mkWord().Eval(m)
	if v < 100 || v >= 120 {
		t.Errorf("model outside window: %d", v)
	}
}

// TestDuplicateConstraintsDropped: newProblem keeps one copy of
// structurally equal constraints — same node or rebuilt from fresh
// nodes, bare or already in truth form — and does not confuse distinct
// constraints that merely share a shape.
func TestDuplicateConstraintsDropped(t *testing.T) {
	mk := func() *expr.Expr { return expr.Ult(word(0, 1), expr.Const(0x1234)) }
	first := mk()
	bare := expr.And(expr.Var(2), expr.Const(0x0f))
	cons := []*expr.Expr{
		first, mk(), first,
		bare, expr.Ne(expr.And(expr.Var(2), expr.Const(0x0f)), expr.Const(0)),
		expr.Ult(word(0, 3), expr.Const(0x1234)), // same shape, another variable
	}
	p, res := newProblem(cons, nil)
	if res != Unknown || p == nil {
		t.Fatalf("newProblem = %v, want an undecided problem", res)
	}
	if got := len(p.cons); got != 3 {
		t.Fatalf("problem kept %d of %d constraints, want 3 distinct", got, len(cons))
	}
	if got := len(p.vars); got != 4 {
		t.Fatalf("problem has %d variables, want 4", got)
	}
	s := Solver{}
	res, m := s.Check(cons)
	if res != Sat {
		t.Fatalf("Check = %v, want sat", res)
	}
	checkModel(t, cons, m)
}
