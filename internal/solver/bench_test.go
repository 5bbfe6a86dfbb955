package solver_test

import (
	"testing"

	"castan/internal/solver"
)

var sinkResult solver.Result

// benchCheck times q and reports the cost of one search step next to
// ns/op: the step count of a query is pinned (identity_test.go), so
// ns/step is what a faster solver moves.
func benchCheck(b *testing.B, q query) {
	sol := solver.Solver{MaxSteps: q.maxSteps, Hint: q.hint}
	_, _, eff := sol.CheckEffort(q.cons)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkResult, _ = sol.Check(q.cons)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(eff.Steps), "ns/step")
	b.ReportMetric(float64(eff.Steps), "steps")
}

// BenchmarkCheckLocal is localRepair's solver work on the two kinds of
// query that carry a tree NF's cost: the first local problem that burns
// its whole 20000-step cap and comes back Unknown, and the most
// expensive local refutation. lb-rbtree's (3840 steps refuted) is the
// older row; nat-ubtree, whose queries are 97 % refutations at 24
// packets, is ROADMAP item 1's target NF.
func BenchmarkCheckLocal(b *testing.B) {
	for _, name := range []string{"lb-rbtree", "nat-ubtree"} {
		qs, _ := explore(b, name)
		var capped, unsat *query
		unsatSteps := 0
		for i := range qs {
			q := &qs[i]
			if q.maxSteps != 20000 {
				continue // a full solve, not a local repair
			}
			sol := solver.Solver{MaxSteps: q.maxSteps, Hint: q.hint}
			switch res, _, eff := sol.CheckEffort(q.cons); {
			case res == solver.Unknown && capped == nil:
				capped = q
			case res == solver.Unsat && eff.Steps > unsatSteps:
				unsat, unsatSteps = q, eff.Steps
			}
		}
		if capped == nil || unsat == nil {
			b.Fatalf("%s no longer poses a capped and a refuted local query", name)
		}
		b.Run(name+"/capped", func(b *testing.B) { benchCheck(b, *capped) })
		b.Run(name+"/unsat", func(b *testing.B) { benchCheck(b, *unsat) })
	}
}

// BenchmarkCheckPath is a from-scratch, unhinted Check of a completed
// lb-rbtree state's whole path (85 constraints) under reconcile's cap —
// what bench/layers.go's solver.check_us_tree drive times.
func BenchmarkCheckPath(b *testing.B) {
	_, done := explore(b, "lb-rbtree")
	benchCheck(b, query{cons: done[0], maxSteps: 30000})
}
