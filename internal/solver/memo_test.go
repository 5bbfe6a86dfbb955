package solver

import (
	"testing"

	"castan/internal/expr"
	"castan/internal/obs"
)

// unsatPair builds {v == 3, v == 5} over the given variable: unsat.
func unsatPair(v expr.VarID) []*expr.Expr {
	return []*expr.Expr{
		expr.Eq(expr.Var(v), expr.Const(3)),
		expr.Eq(expr.Var(v), expr.Const(5)),
	}
}

// satSum builds a satisfiable query: two free variables with a fixed sum.
func satSum(v expr.VarID, sum uint64) []*expr.Expr {
	return []*expr.Expr{
		expr.Eq(expr.Add(expr.Var(v), expr.Var(v+1)), expr.Const(sum)),
	}
}

func TestMemoUnsatHit(t *testing.T) {
	rec := obs.New(obs.NewFakeClock(1))
	m := NewMemo(0, rec)
	s := &Solver{Obs: rec, Memo: m}

	if res, _ := s.Check(unsatPair(7)); res != Unsat {
		t.Fatalf("first check: %v", res)
	}
	if m.Len() != 1 {
		t.Fatalf("memo size after unsat: %d", m.Len())
	}
	// Identical query: must hit without touching solver.queries.
	before := rec.Snapshot().Counters["solver.queries"]
	if res, _ := s.Check(unsatPair(7)); res != Unsat {
		t.Fatalf("repeat check: %v", res)
	}
	snap := rec.Snapshot()
	if got := snap.Counters["solver.queries"]; got != before {
		t.Errorf("memo hit must not count a query: %d -> %d", before, got)
	}
	if snap.Counters["solver.memo_hits"] != 1 {
		t.Errorf("memo_hits = %d", snap.Counters["solver.memo_hits"])
	}
	// Renamed variable: same canonical key, still a hit.
	if res, _ := s.Check(unsatPair(99)); res != Unsat {
		t.Fatalf("renamed check: %v", res)
	}
	// Reordered constraints: same canonical key.
	cs := unsatPair(13)
	cs[0], cs[1] = cs[1], cs[0]
	if res, _ := s.Check(cs); res != Unsat {
		t.Fatalf("reordered check: %v", res)
	}
	if got := rec.Snapshot().Counters["solver.memo_hits"]; got != 3 {
		t.Errorf("memo_hits after rename+reorder = %d, want 3", got)
	}
	if m.Len() != 1 {
		t.Errorf("all variants must share one key; memo has %d", m.Len())
	}
}

func TestMemoSearchedSatNotCached(t *testing.T) {
	rec := obs.New(obs.NewFakeClock(1))
	m := NewMemo(0, rec)
	s := &Solver{Obs: rec, Memo: m}
	cs := satSum(1, 10)
	res, model := s.Check(cs)
	if res != Sat || model[1]+model[2] != 10 {
		t.Fatalf("sat check: %v %v", res, model)
	}
	if m.Len() != 0 {
		t.Errorf("sat verdicts must not be cached; memo has %d", m.Len())
	}
	// The repeat query runs the full search again.
	if res, _ := s.Check(cs); res != Sat {
		t.Fatalf("repeat sat check: %v", res)
	}
	snap := rec.Snapshot()
	if got := snap.Counters["solver.queries"]; got != 2 {
		t.Errorf("searched sat queries must all be counted: %d", got)
	}
	if got := snap.Counters["solver.memo_misses"]; got != 2 {
		t.Errorf("memo_misses = %d, want 2", got)
	}
}

func TestMemoMinVarFilter(t *testing.T) {
	m := NewMemo(100, nil)
	// Only low (packet-byte) variables: not memoizable.
	if _, _, ok := m.lookup(unsatPair(7)); ok {
		t.Error("query below MinVar must not participate")
	}
	// Mentions a havoc-range variable: memoizable.
	if _, _, ok := m.lookup(unsatPair(100)); !ok {
		t.Error("query at MinVar must participate")
	}
}

func TestMemoTautologyDropped(t *testing.T) {
	m := NewMemo(0, nil)
	base := unsatPair(5)
	withTaut := append([]*expr.Expr{
		expr.Ule(expr.Var(5), expr.Const(255)), // always true for a byte
	}, base...)
	k1, _, ok1 := m.lookup(base)
	k2, _, ok2 := m.lookup(withTaut)
	if !ok1 || !ok2 || k1 != k2 {
		t.Errorf("tautologies must not split keys: %q vs %q", k1, k2)
	}
}

func TestMemoConstFalseNotMemoized(t *testing.T) {
	m := NewMemo(0, nil)
	cs := []*expr.Expr{expr.Const(0)}
	if _, _, ok := m.lookup(cs); ok {
		t.Error("trivially false sets must fall through to the solver")
	}
}

func TestMemoDistinctStructuresMiss(t *testing.T) {
	rec := obs.New(obs.NewFakeClock(1))
	m := NewMemo(0, rec)
	s := &Solver{Obs: rec, Memo: m}
	if res, _ := s.Check(unsatPair(1)); res != Unsat {
		t.Fatal("unsat pair")
	}
	// Different constants: different key, full search, second entry.
	cs := []*expr.Expr{
		expr.Eq(expr.Var(1), expr.Const(4)),
		expr.Eq(expr.Var(1), expr.Const(6)),
	}
	if res, _ := s.Check(cs); res != Unsat {
		t.Fatal("second unsat pair")
	}
	if m.Len() != 2 {
		t.Errorf("distinct structures must not collide: memo has %d", m.Len())
	}
	if got := rec.Snapshot().Counters["solver.memo_misses"]; got != 2 {
		t.Errorf("memo_misses = %d, want 2", got)
	}
}
