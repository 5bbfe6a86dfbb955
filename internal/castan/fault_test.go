package castan

import (
	"bytes"
	"testing"

	"castan/internal/budget"
	"castan/internal/faultinject"
	"castan/internal/memsim"
	"castan/internal/nf"
	"castan/internal/packet"
)

// TestFaultMatrix drives every NF in the catalog under every seeded fault
// plan, with tight per-stage budgets so the matrix stays fast. Whatever is
// injected — forced solver Unknowns, perturbed probe timings, corrupted
// rainbow chains — Analyze must return a valid (possibly
// degraded) output with well-formed frames and a serializable report, and
// must never crash or error out.
func TestFaultMatrix(t *testing.T) {
	for _, name := range nf.Names {
		for _, plan := range faultinject.MatrixPlans() {
			name, plan := name, plan
			t.Run(name+"/"+plan.Name, func(t *testing.T) {
				t.Parallel()
				inst, err := nf.New(name)
				if err != nil {
					t.Fatal(err)
				}
				m := budget.New(0)
				m.SetStageLimit(budget.StageDiscover, 60_000)
				m.SetStageLimit(budget.StageSymbex, 2_500)
				hier := memsim.New(memsim.DefaultGeometry(), 7)
				out, err := Analyze(inst, hier, Config{
					NPackets:  3,
					MaxStates: 800,
					Seed:      7,
					Budget:    m,
					Faults:    plan,
					Tables:    &testTables,
				})
				if err != nil {
					t.Fatalf("Analyze must degrade, not fail: %v", err)
				}
				if len(out.Frames) != 3 {
					t.Fatalf("frames = %d, want 3", len(out.Frames))
				}
				for i, fr := range out.Frames {
					if _, err := packet.Parse(fr); err != nil {
						t.Fatalf("frame %d does not parse: %v", i, err)
					}
				}
				for _, d := range out.Degradations {
					if d.Stage == "" || d.Reason == "" || d.Fallback == "" {
						t.Errorf("incomplete degradation record %+v", d)
					}
				}
				var buf bytes.Buffer
				if err := out.WriteReport(&buf); err != nil {
					t.Fatal(err)
				}
				rep, err := ReadReport(&buf)
				if err != nil {
					t.Fatalf("degraded report does not round-trip: %v", err)
				}
				if rep.NF != name || len(rep.Packets) != len(out.Frames) {
					t.Fatalf("report shape: nf=%q packets=%d", rep.NF, len(rep.Packets))
				}
				if len(rep.Degradations) != len(out.Degradations) {
					t.Errorf("report carries %d degradations, output %d",
						len(rep.Degradations), len(out.Degradations))
				}
			})
		}
	}
}

// TestChainCorruptionDegradesRainbow pins the chain-corruption path: a
// corrupted table must fail its self-check, be dropped (never entering the
// shared cache), and leave the NF's havoc sites unreconciled — a flagged
// degradation, not an error.
func TestChainCorruptionDegradesRainbow(t *testing.T) {
	inst, err := nf.New("lb-chain")
	if err != nil {
		t.Fatal(err)
	}
	hier := memsim.New(memsim.DefaultGeometry(), 2024)
	out, err := Analyze(inst, hier, Config{
		NPackets:  6,
		MaxStates: 2500,
		Seed:      1,
		Faults:    &faultinject.Plan{Name: "chain-corrupt", Seed: 3, CorruptChainEvery: 1},
	})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if out.HavocsReconciled != 0 {
		t.Errorf("%d havocs reconciled through corrupted tables", out.HavocsReconciled)
	}
	hasRainbow := false
	for _, d := range out.Degradations {
		if d.Stage == "rainbow" {
			hasRainbow = true
		}
	}
	if !hasRainbow {
		t.Errorf("no rainbow degradation recorded: %+v", out.Degradations)
	}
	if out.HavocsTotal > 0 && len(out.UnreconciledSites) == 0 {
		t.Error("havocs exist but no unreconciled sites flagged")
	}
}

// TestForcedUnknownDegradesInsteadOfErring pins the injected-solver-fault
// path: when every solver query returns Unknown from the start, the
// pipeline still emits a degraded best-effort output.
func TestForcedUnknownDegradesInsteadOfErring(t *testing.T) {
	inst, err := nf.New("lpm-dl2")
	if err != nil {
		t.Fatal(err)
	}
	hier := memsim.New(memsim.DefaultGeometry(), 2024)
	out, err := Analyze(inst, hier, Config{
		NPackets:  3,
		MaxStates: 800,
		Seed:      1,
		Faults:    &faultinject.Plan{Name: "solver-unknown", Seed: 1, SolverUnknownAfter: 1},
	})
	if err != nil {
		t.Fatalf("Analyze must degrade, not fail: %v", err)
	}
	if !out.Degraded() {
		t.Fatalf("starved solver produced a clean run: %+v", out.Degradations)
	}
	if len(out.Frames) != 3 {
		t.Fatalf("frames = %d, want 3", len(out.Frames))
	}
}

// TestBudgetExhaustionEmitsBestPartial pins the tentpole degradation: a
// symbex budget too small for any state to finish still yields an output
// built from the most-progressed partial state, with the exhaustion reason
// recorded and ticks accounted.
func TestBudgetExhaustionEmitsBestPartial(t *testing.T) {
	inst, err := nf.New("lb-chain")
	if err != nil {
		t.Fatal(err)
	}
	m := budget.New(0)
	// lb-chain completes 8 packets in ~20 pops; 5 guarantees a mid-search
	// cut with no completed state.
	m.SetStageLimit(budget.StageSymbex, 5)
	hier := memsim.New(memsim.DefaultGeometry(), 2024)
	out, err := Analyze(inst, hier, Config{
		NPackets:  8,
		MaxStates: 4000,
		Seed:      1,
		Budget:    m,
	})
	if err != nil {
		t.Fatalf("Analyze must degrade, not fail: %v", err)
	}
	if !out.Degraded() {
		t.Fatal("5-pop budget did not degrade an 8-packet analysis")
	}
	hasSymbex := false
	for _, d := range out.Degradations {
		if d.Stage == "symbex" && d.Reason != "" {
			hasSymbex = true
		}
	}
	if !hasSymbex {
		t.Fatalf("no symbex degradation recorded: %+v", out.Degradations)
	}
	if out.BudgetTicksUsed == 0 {
		t.Error("BudgetTicksUsed = 0 on a budget-cut run")
	}
	if len(out.Frames) != 8 {
		t.Fatalf("frames = %d, want 8", len(out.Frames))
	}
	for i, fr := range out.Frames {
		if _, err := packet.Parse(fr); err != nil {
			t.Errorf("frame %d does not parse: %v", i, err)
		}
	}
}
