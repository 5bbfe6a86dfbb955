package solver_test

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"castan/internal/castan"
	"castan/internal/expr"
	"castan/internal/memsim"
	"castan/internal/nf"
	"castan/internal/solver"
	"castan/internal/symbex"
)

// The solver's dense, compiled search must be the reference search made
// cheaper and nothing else: every query gets the same Result, the same
// model, and the same steps, propagation rounds, backtracks and hint
// hits. That is what keeps every PCAP, report, store key and budget tick
// where it was, so it is checked query by query here rather than
// inferred from end-to-end goldens.

type query struct {
	cons     []*expr.Expr
	hint     solver.Model
	maxSteps int
}

// sameAsReference runs q through Check and through the reference search
// and fails on any difference.
func sameAsReference(t *testing.T, what string, q query) (solver.Result, solver.Model, solver.Effort) {
	t.Helper()
	sol := solver.Solver{MaxSteps: q.maxSteps, Hint: q.hint}
	res, m, eff := sol.CheckEffort(q.cons)
	wantRes, wantM, wantEff := solver.RefCheck(q.cons, q.hint, q.maxSteps)
	if res != wantRes || eff != wantEff || !maps.Equal(m, wantM) || (m == nil) != (wantM == nil) {
		t.Fatalf("%s (%d constraints, hint=%v, cap %d):\n  Check     %v %+v model %v\n  reference %v %+v model %v",
			what, len(q.cons), q.hint != nil, q.maxSteps, res, eff, m, wantRes, wantEff, wantM)
	}
	return res, m, eff
}

// cutInsideBlocks re-runs q under step caps that land on blocks the
// search skipped (see solver.go's block refutation): at a block's first
// value, somewhere inside it, and at its last, for the first and
// last block and up to extra more drawn from rng. Every cut must give
// the reference's Result, model and effort. It returns the number of
// caps it tried.
func cutInsideBlocks(t *testing.T, what string, q query, rng *rand.Rand, extra int) int {
	t.Helper()
	blocks := (&solver.Solver{MaxSteps: q.maxSteps, Hint: q.hint}).SkippedBlocks(q.cons)
	if len(blocks) == 0 {
		return 0
	}
	picks := []solver.Block{blocks[0], blocks[len(blocks)-1]}
	for ; extra > 0; extra-- {
		picks = append(picks, blocks[rng.Intn(len(blocks))])
	}
	cuts := 0
	for _, b := range picks {
		for _, cut := range []int{b.Before, b.Before + 1 + rng.Intn(max(b.N-1, 1)), b.Before + b.N} {
			sameAsReference(t, fmt.Sprintf("%s cut at step %d (block of %d after step %d)", what, cut, b.N, b.Before), query{q.cons, q.hint, cut})
			cuts++
		}
	}
	return cuts
}

// explore runs the engine castan.Analyze runs on one catalog NF at
// -packets 6 -states 4000 -seed 2018 and returns every query it posed to
// a solver and the path constraints of every state it completed.
func explore(t testing.TB, name string) (qs []query, done [][]*expr.Expr) {
	t.Helper()
	inst, err := nf.New(name)
	if err != nil {
		t.Fatal(err)
	}
	s, err := castan.NewSearch(inst, memsim.New(memsim.DefaultGeometry(), 2018),
		castan.Config{NPackets: 6, MaxStates: 4000, Seed: 2018})
	if err != nil {
		t.Fatal(err)
	}
	s.Engine.QueryTrace = func(cons []*expr.Expr, hint solver.Model, maxSteps int) {
		qs = append(qs, query{append([]*expr.Expr(nil), cons...), maps.Clone(hint), maxSteps})
	}
	s.Engine.Trace = func(event string, st *symbex.State) {
		if event == "done" {
			done = append(done, append([]*expr.Expr(nil), st.Constraints()...))
		}
	}
	if _, err := s.Engine.Run(); err != nil {
		t.Fatal(err)
	}
	if len(qs) == 0 || len(done) == 0 {
		t.Fatalf("%s: exploration posed %d queries and completed %d states", name, len(qs), len(done))
	}
	return qs, done
}

// TestCheckMatchesReferenceOnCapturedQueries replays every query a
// 6-packet / 4000-state exploration poses — tree, trie, chain and ring
// NF, and lpm-dl1, whose address sweeps run over the discovered
// contention sets — as posed, without its hint, and under each of the
// pipeline's three step caps (symbex full solve 8000, local repair 20000,
// reconcile 30000), so that queries which hit a cap are compared at the
// cut too; and, as posed, under caps that cut inside the value blocks a
// single interval check refuted.
func TestCheckMatchesReferenceOnCapturedQueries(t *testing.T) {
	for _, name := range []string{"lb-rbtree", "nat-ubtree", "lpm-trie", "nat-chain", "lb-ring", "lpm-dl1"} {
		t.Run(name, func(t *testing.T) {
			qs, _ := explore(t, name)
			rng := rand.New(rand.NewSource(48))
			searched, capped, cuts := 0, 0, 0
			for i, q := range qs {
				what := fmt.Sprintf("%s query %d", name, i)
				res, _, eff := sameAsReference(t, what, q)
				if eff.Steps > 0 {
					searched++
				}
				if res == solver.Unknown {
					capped++
				}
				sameAsReference(t, what, query{q.cons, nil, q.maxSteps})
				for _, steps := range []int{8000, 20000, 30000} {
					if steps != q.maxSteps {
						sameAsReference(t, what, query{q.cons, q.hint, steps})
					}
				}
				cuts += cutInsideBlocks(t, what, q, rng, 1)
			}
			if cuts == 0 {
				t.Fatalf("%s: no query skipped a block, so no cap cut inside one", name)
			}
			t.Logf("%s: %d queries, %d searched, %d hit their cap, %d caps cut on a skipped block", name, len(qs), searched, capped, cuts)
		})
	}
}

// TestProgramCacheKeepsEveryQuery replays each exploration's queries in
// the order it posed them through solvers that share one Programs
// cache, as the engine's do, so a constraint posed again reuses the
// program an earlier query left behind, rebound and holding that
// query's node values. Every query must come out exactly as with
// programs compiled afresh.
func TestProgramCacheKeepsEveryQuery(t *testing.T) {
	for _, name := range []string{"lb-ubtree", "nat-ubtree", "lb-rbtree", "lpm-trie"} {
		t.Run(name, func(t *testing.T) {
			qs, _ := explore(t, name)
			var progs solver.Programs
			reused := 0
			for i, q := range qs {
				for _, c := range q.cons {
					if progs.Has(c) {
						reused++
					}
				}
				fresh := solver.Solver{MaxSteps: q.maxSteps, Hint: q.hint}
				cached := solver.Solver{MaxSteps: q.maxSteps, Hint: q.hint, Programs: &progs}
				res, m, eff := cached.CheckEffort(q.cons)
				wantRes, wantM, wantEff := fresh.CheckEffort(q.cons)
				if res != wantRes || eff != wantEff || !maps.Equal(m, wantM) {
					t.Fatalf("%s query %d (%d constraints, cap %d):\n  cached programs %v %+v model %v\n  fresh programs  %v %+v model %v",
						name, i, len(q.cons), q.maxSteps, res, eff, m, wantRes, wantEff, wantM)
				}
			}
			if reused == 0 {
				t.Fatalf("%s: %d queries reused no program", name, len(qs))
			}
			t.Logf("%s: %d queries, %d constraints posed with a cached program", name, len(qs), reused)
		})
	}
}

// randomSystem draws a constraint system over nvars byte variables,
// each confined by an explicit bound to bounds[v]+1 values so that brute
// force over the whole space stays cheap. Every expr op occurs, shared
// sub-DAGs and repeated constraints included.
func randomSystem(rng *rand.Rand, nvars int, bounds []uint64) []*expr.Expr {
	vars := make([]*expr.Expr, nvars)
	for i := range vars {
		vars[i] = expr.Var(expr.VarID(i * 3)) // sparse IDs: slots are not IDs
	}
	binops := []expr.Op{
		expr.OpAdd, expr.OpSub, expr.OpMul, expr.OpAnd, expr.OpOr, expr.OpXor,
		expr.OpShl, expr.OpLshr, expr.OpUDiv, expr.OpURem,
	}
	cmps := []expr.Op{expr.OpEq, expr.OpNe, expr.OpUlt, expr.OpUle}
	var pool []*expr.Expr // sub-DAGs available for sharing
	var term func(rng *rand.Rand, depth int) *expr.Expr
	term = func(rng *rand.Rand, depth int) *expr.Expr {
		switch r := rng.Intn(10); {
		case depth == 0 || r < 2:
			return vars[rng.Intn(nvars)]
		case r < 3:
			return expr.Const(uint64(rng.Intn(40)))
		case r < 4 && len(pool) > 0:
			return pool[rng.Intn(len(pool))]
		case r < 5:
			c := expr.New(cmps[rng.Intn(len(cmps))], term(rng, depth-1), term(rng, depth-1))
			return expr.Ite(c, term(rng, depth-1), term(rng, depth-1))
		default:
			e := expr.New(binops[rng.Intn(len(binops))], term(rng, depth-1), term(rng, depth-1))
			pool = append(pool, e)
			return e
		}
	}
	constraint := func(rng *rand.Rand) *expr.Expr {
		lhs := term(rng, 1+rng.Intn(3))
		if rng.Intn(6) == 0 {
			return lhs // a bare term: "lhs != 0"
		}
		rhs := expr.Const(uint64(rng.Intn(64)))
		if rng.Intn(3) == 0 {
			rhs = term(rng, 2)
		}
		return expr.New(cmps[rng.Intn(len(cmps))], lhs, rhs)
	}
	var cons []*expr.Expr
	for v, b := range bounds {
		cons = append(cons, expr.Ule(vars[v], expr.Const(b)))
	}
	for n := 1 + rng.Intn(4); n > 0; n-- {
		seed, shared := rng.Int63(), len(pool)
		cons = append(cons, constraint(rand.New(rand.NewSource(seed))))
		switch rng.Intn(8) {
		case 0: // the same node again
			cons = append(cons, cons[rng.Intn(len(cons))])
		case 1: // the same structure rebuilt from fresh nodes
			pool = pool[:shared]
			cons = append(cons, constraint(rand.New(rand.NewSource(seed))))
		}
	}
	rng.Shuffle(len(cons), func(i, j int) { cons[i], cons[j] = cons[j], cons[i] })
	return cons
}

// satisfiable enumerates the bounded space.
func satisfiable(cons []*expr.Expr, nvars int, bounds []uint64) bool {
	vals := map[expr.VarID]uint64{}
	var rec func(v int) bool
	rec = func(v int) bool {
		if v == nvars {
			for _, c := range cons {
				if c.Eval(vals) == 0 {
					return false
				}
			}
			return true
		}
		for x := uint64(0); x <= bounds[v]; x++ {
			vals[expr.VarID(v*3)] = x
			if rec(v + 1) {
				return true
			}
		}
		return false
	}
	return rec(0)
}

// TestCheckMatchesReferenceAndBruteForce: on seeded random systems over
// at most four byte variables Check equals the reference search (with
// and without a hint, uncapped and under a cap small enough to bite),
// every Sat model satisfies every constraint, and every verdict agrees
// with exhaustive enumeration. Caps that cut inside skipped value blocks
// (cutInsideBlocks) are compared too.
func TestCheckMatchesReferenceAndBruteForce(t *testing.T) {
	const systems = 3000
	rng := rand.New(rand.NewSource(2018))
	verdicts := map[solver.Result]int{}
	cutRng, cuts := rand.New(rand.NewSource(48)), 0 // its own, so the systems drawn stay the same
	for i := 0; i < systems; i++ {
		nvars := 1 + rng.Intn(4)
		bounds := make([]uint64, nvars)
		for v := range bounds {
			bounds[v] = uint64([]int{1, 3, 6, 7}[rng.Intn(4)])
		}
		cons := randomSystem(rng, nvars, bounds)
		what := fmt.Sprintf("system %d", i)

		res, m, _ := sameAsReference(t, what, query{cons, nil, 400000})
		verdicts[res]++
		want := satisfiable(cons, nvars, bounds)
		switch res {
		case solver.Sat:
			for _, c := range cons {
				if c.Eval(m) == 0 {
					t.Fatalf("%s: model %v violates %v", what, m, c)
				}
			}
			if !want {
				t.Fatalf("%s: Sat, but no assignment in the bounded space satisfies it", what)
			}
		case solver.Unsat:
			if want {
				t.Fatalf("%s: Unsat, but enumeration finds a solution: %v", what, cons)
			}
		default:
			t.Fatalf("%s: Unknown under the default cap", what)
		}

		hint := solver.Model{}
		for v := 0; v < nvars; v++ {
			if rng.Intn(3) > 0 {
				hint[expr.VarID(v*3)] = uint64(rng.Intn(300)) // > 255 exercises the byte mask
			}
		}
		sameAsReference(t, what, query{cons, hint, 400000})
		sameAsReference(t, what, query{cons, hint, 1 + rng.Intn(40)})
		sameAsReference(t, what, query{cons, nil, 1 + rng.Intn(40)})
		cuts += cutInsideBlocks(t, what, query{cons, hint, 400000}, cutRng, 1)
		cuts += cutInsideBlocks(t, what, query{cons, nil, 400000}, cutRng, 1)
	}
	if cuts < systems {
		t.Fatalf("only %d caps cut on a skipped block over %d systems", cuts, systems)
	}
	if verdicts[solver.Sat] < systems/10 || verdicts[solver.Unsat] < systems/10 {
		t.Fatalf("generator is lopsided: %v", verdicts)
	}
	t.Logf("verdicts over %d systems: %v; %d caps cut on a skipped block", systems, verdicts, cuts)
}

// TestQuickFeasibleUnsatIsSound: on seeded random systems over at most
// three bounded byte variables, with v == c pins (either operand order,
// some outside the bound, some repeated) and comparisons of the
// variables' concatenated word, QuickFeasible answers Unsat only where
// exhaustive enumeration finds no model. Enough of those refutations
// must need the pins — no single constraint is refuted on its own — for
// the check to cover the pin pass.
func TestQuickFeasibleUnsatIsSound(t *testing.T) {
	const systems = 3000
	rng := rand.New(rand.NewSource(46))
	var refuted, byPins int
	for i := 0; i < systems; i++ {
		nvars := 1 + rng.Intn(3)
		bounds := make([]uint64, nvars)
		for v := range bounds {
			bounds[v] = uint64([]int{1, 3, 6, 7}[rng.Intn(4)])
		}
		cons := randomSystem(rng, nvars, bounds)
		bytes := make([]*expr.Expr, nvars)
		for v := range bytes {
			bytes[v] = expr.Var(expr.VarID(v * 3))
		}
		for n := rng.Intn(4); n > 0; n-- {
			v := rng.Intn(nvars)
			k := expr.Const(uint64(rng.Intn(int(bounds[v]) + 2)))
			if rng.Intn(2) == 0 {
				cons = append(cons, expr.Eq(bytes[v], k))
			} else {
				cons = append(cons, expr.Eq(k, bytes[v]))
			}
		}
		if rng.Intn(2) == 0 {
			w := expr.ConcatBytes(bytes...)
			var k uint64
			for v := range bytes {
				k = k<<8 | uint64(rng.Intn(int(bounds[v])+2))
			}
			op := []expr.Op{expr.OpEq, expr.OpNe, expr.OpUlt, expr.OpUle}[rng.Intn(4)]
			cons = append(cons, expr.New(op, w, expr.Const(k)))
		}
		rng.Shuffle(len(cons), func(i, j int) { cons[i], cons[j] = cons[j], cons[i] })

		if solver.QuickFeasible(cons) != solver.Unsat {
			continue
		}
		refuted++
		if satisfiable(cons, nvars, bounds) {
			t.Fatalf("system %d: QuickFeasible says Unsat, but enumeration finds a model: %v", i, cons)
		}
		alone := false
		for _, c := range cons {
			if expr.Range(expr.Truth(c), nil).Hi == 0 {
				alone = true
			}
		}
		if !alone {
			byPins++
		}
	}
	if byPins < systems/20 {
		t.Fatalf("only %d of %d refutations needed the pins", byPins, refuted)
	}
	t.Logf("%d of %d systems refuted, %d of them by the pins", refuted, systems, byPins)
}
