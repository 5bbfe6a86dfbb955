package castan

import (
	"testing"

	"castan/internal/budget"
	"castan/internal/memsim"
	"castan/internal/nf"
	"castan/internal/obs"
)

// TestSolverEffortPinned pins, to the unit, what the solver does for the
// five NFs whose analysis is solver-bound at `castan -packets 6 -states
// 4000 -seed 2018`. The values are the tree-walking, map-keyed solver's:
// the dense compiled one replaced it under the rule that no query may
// take a different decision or a different number of steps, and the
// perf gate only notices counters that rise. A change that prunes
// harder or orders differently will — legitimately — move these; it
// then owes the argument ROADMAP item 1 asks for (adversarial cycles per
// packet no lower, Validate green), not PCAP identity.
func TestSolverEffortPinned(t *testing.T) {
	cases := []struct {
		nf                            string
		queries, sat, unsat, unknown  uint64
		backtracks, propagationRounds uint64
		budgetTicks                   uint64
	}{
		{"lb-ubtree", 315, 60, 250, 5, 146590, 147255, 147302},
		{"nat-ubtree", 528, 68, 458, 2, 163298, 163883, 163931},
		{"lb-rbtree", 256, 65, 185, 6, 207697, 208458, 208504},
		{"nat-rbtree", 287, 55, 231, 1, 107546, 108019, 108058},
		{"nat-chain", 65, 59, 1, 5, 178837, 180171, 443459},
	}
	for _, tc := range cases {
		t.Run(tc.nf, func(t *testing.T) {
			inst, err := nf.New(tc.nf)
			if err != nil {
				t.Fatal(err)
			}
			rec := obs.New(obs.NewFakeClock(1))
			out, err := Analyze(inst, memsim.New(memsim.DefaultGeometry(), 2018), Config{
				NPackets: 6, MaxStates: 4000, Seed: 2018,
				Obs: rec, Budget: budget.New(0), Tables: &testTables,
			})
			if err != nil {
				t.Fatal(err)
			}
			c := rec.Snapshot().Counters
			for _, p := range []struct {
				name      string
				got, want uint64
			}{
				{"solver.queries", c["solver.queries"], tc.queries},
				{"solver.queries_sat", c["solver.queries_sat"], tc.sat},
				{"solver.queries_unsat", c["solver.queries_unsat"], tc.unsat},
				{"solver.queries_unknown", c["solver.queries_unknown"], tc.unknown},
				{"solver.backtracks", c["solver.backtracks"], tc.backtracks},
				{"solver.propagation_rounds", c["solver.propagation_rounds"], tc.propagationRounds},
				{"castan.budget_ticks", out.BudgetTicksUsed, tc.budgetTicks},
			} {
				if p.got != p.want {
					t.Errorf("%s = %d, pinned at %d", p.name, p.got, p.want)
				}
			}
		})
	}
}
