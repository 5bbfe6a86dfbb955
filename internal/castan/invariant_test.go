package castan

import (
	"testing"

	"castan/internal/budget"
	"castan/internal/expr"
	"castan/internal/memsim"
	"castan/internal/nf"
	"castan/internal/symbex"
)

// TestCachedModelsSatisfyPathConstraints is the oracle for the engine
// invariant Analyze's single emit path rests on: every state the search
// completes carries a cached model under which each of its path
// constraints holds, and so does the most-progressed partial state a
// symbex-cut run emits. concretize ships that model as it is when the
// final solve or the search is cut, and it keeps no other state to fall
// back to, so a broken invariant must fail here instead of shipping a
// workload that does not drive the chosen path.
func TestCachedModelsSatisfyPathConstraints(t *testing.T) {
	check := func(t *testing.T, what string, st *symbex.State) {
		t.Helper()
		mdl := map[expr.VarID]uint64(st.Model())
		for i, c := range st.Constraints() {
			if c.Eval(mdl) == 0 {
				t.Errorf("%s state %d: path constraint %d (%v) is false under its cached model", what, st.ID, i, c)
				return
			}
		}
	}
	search := func(t *testing.T, name string, cfg Config) *Search {
		t.Helper()
		inst, err := nf.New(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Seed, cfg.Tables = 2018, &testTables
		s, err := NewSearch(inst, memsim.New(memsim.DefaultGeometry(), 2018), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	for _, name := range nf.Names {
		t.Run(name, func(t *testing.T) {
			s := search(t, name, Config{NPackets: 6, MaxStates: 4000})
			done := 0
			s.Engine.Trace = func(event string, st *symbex.State) {
				if event == "done" {
					done++
					check(t, "completed", st)
				}
			}
			res, err := s.Engine.Run()
			if err != nil {
				t.Fatal(err)
			}
			if done == 0 || res.Best == nil {
				t.Fatalf("no state completed (%d done)", done)
			}
		})
	}

	// A whole-run budget that cuts lb-chain's search before any state
	// consumes all 4 packets (castan -nf lb-chain -packets 4 -states 2000
	// -budget 2000); its partial state carries two havocs. The
	// degraded-run golden's 8-pop symbex cut is too late for this: a
	// state completes within those pops.
	t.Run("symbex-cut", func(t *testing.T) {
		s := search(t, "lb-chain", Config{NPackets: 4, MaxStates: 2000, Budget: budget.New(2000)})
		res, err := s.Engine.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Best != nil || res.BestPartial == nil || res.BudgetExhausted == "" {
			t.Fatalf("want a cut search with a partial state; got best=%v partial=%v reason=%q",
				res.Best != nil, res.BestPartial != nil, res.BudgetExhausted)
		}
		if len(res.BestPartial.Havocs) == 0 {
			t.Error("the partial state carries no havocs")
		}
		check(t, "partial", res.BestPartial)
	})
}
