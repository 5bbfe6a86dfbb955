package repro

import (
	"testing"

	"castan/internal/castan"
	"castan/internal/faultinject"
	"castan/internal/memsim"
	"castan/internal/nf"
	"castan/internal/obs"
	"castan/internal/obs/tracediff"
)

// End-to-end regression attribution (the tracediff contract): perturb
// exactly one pipeline stage and the diff must name that stage, with no
// false positives from the untouched ones.
//
// The faultinject probe-timing perturbation corrupts the signal
// cache model discovery measures, so the perturbed run gives up on sets
// earlier and probes *less* (fewer memsim.probe_line_reads, fewer
// contention sets). Diffing perturbed -> clean therefore shows a real
// discovery-effort regression whose top attribution is castan.discover.
// The smaller discovered model also changes the downstream constraint
// problem (solver backtracks move), which is fine: attribution ranks the
// perturbed stage first, it does not pretend faults never propagate.
func TestTracediffAttributesPerturbedStage(t *testing.T) {
	analyze := func(plan *faultinject.Plan) *tracediff.Run {
		inst, err := nf.New("lpm-dl1")
		if err != nil {
			t.Fatal(err)
		}
		rec := obs.New(obs.NewFakeClock(1000))
		if _, err := castan.Analyze(inst, memsim.New(memsim.DefaultGeometry(), 2018), castan.Config{
			NPackets:  10,
			MaxStates: 4000,
			Seed:      2018,
			Obs:       rec,
			Faults:    plan,
		}); err != nil {
			t.Fatal(err)
		}
		m := rec.Snapshot()
		return &tracediff.Run{Label: "lpm-dl1", Counters: m.Counters, Phases: m.Phases}
	}

	perturbed := analyze(&faultinject.Plan{Name: "probe-perturb", Seed: 2, ProbePerturb: true})
	clean := analyze(nil)

	if p, c := perturbed.Counters["memsim.probe_line_reads"], clean.Counters["memsim.probe_line_reads"]; p >= c {
		t.Fatalf("fixture assumption broken: perturbed run probed %d lines, clean %d — expected the perturbation to shrink discovery effort", p, c)
	}

	rep := tracediff.Diff(perturbed, clean, 0.05)
	if !rep.HasRegressions() {
		t.Fatal("no regression detected between perturbed baseline and clean run")
	}
	if rep.TopStage != "castan.discover" {
		t.Errorf("TopStage = %q, want castan.discover; regressions: %+v", rep.TopStage, rep.Regressions)
	}
	probed := false
	for _, e := range rep.Regressions {
		if e.Name == "memsim.probe_line_reads" {
			probed = true
			if e.Stage != "castan.discover" {
				t.Errorf("memsim.probe_line_reads attributed to %s, want castan.discover", e.Stage)
			}
		}
	}
	if !probed {
		t.Errorf("memsim.probe_line_reads not among regressions: %+v", rep.Regressions)
	}
	// The search itself is unperturbed: the core exploration counters are
	// bit-identical and never enter the diff at all.
	for _, e := range rep.Counters {
		if e.Name == "symbex.states_explored" || e.Name == "solver.queries" {
			t.Errorf("core search counter %s moved (%d -> %d) under a probe-timing fault", e.Name, e.Base, e.New)
		}
	}
}
