package repro

import (
	"bytes"
	"testing"

	"castan/internal/budget"
	"castan/internal/castan"
	"castan/internal/memsim"
	"castan/internal/nf"
	"castan/internal/obs"
)

// The degraded-run golden (DESIGN.md decision 10): a budget-exhausted
// analysis is as reproducible as a full one. Under the fake clock the
// whole degraded Output — frames, Degradations, UnreconciledSites,
// BudgetTicksUsed — and the telemetry/trace bytes must be identical at
// W=1, W=4 and W=8, because budget charges are commutative atomic adds
// and exhaustion checks happen only at deterministic orchestration
// points.

func budgetedAnalyze(t *testing.T, workers int) (*obs.Recorder, *castan.Output) {
	t.Helper()
	inst, err := nf.New("lb-chain")
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New(obs.NewFakeClock(1000))
	m := budget.New(0)
	// lb-chain completes 10 packets in a few dozen pops; 8 guarantees a
	// mid-search cut at the same pop boundary at every worker count.
	m.SetStageLimit(budget.StageSymbex, 8)
	hier := memsim.New(memsim.DefaultGeometry(), 2018)
	out, err := castan.Analyze(inst, hier, castan.Config{
		NPackets:  10,
		MaxStates: 4000,
		Seed:      2018,
		Workers:   workers,
		Obs:       rec,
		Budget:    m,
	})
	if err != nil {
		t.Fatalf("Analyze(W=%d): %v", workers, err)
	}
	if !out.Degraded() {
		t.Fatalf("W=%d: 8-pop symbex budget did not degrade the run", workers)
	}
	return rec, out
}

func degradedRunBytes(t *testing.T, rec *obs.Recorder, out *castan.Output) (report, trace []byte) {
	t.Helper()
	// AnalysisSeconds is wall-clock by design (the paper's Table 4 column);
	// zero it so the report bytes compare across runs.
	out.AnalysisSeconds = 0
	var rb, tb bytes.Buffer
	if err := out.WriteReport(&rb); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteChromeTrace(&tb); err != nil {
		t.Fatal(err)
	}
	return rb.Bytes(), tb.Bytes()
}

func TestWorkerCountDeterminismBudgetExhausted(t *testing.T) {
	refRec, refOut := budgetedAnalyze(t, 1)

	// The cut must be visible end to end: a symbex degradation entry, a
	// matching telemetry counter, and a non-zero tick account.
	hasSymbex := false
	for _, d := range refOut.Degradations {
		if d.Stage == "symbex" {
			hasSymbex = true
		}
	}
	if !hasSymbex {
		t.Fatalf("no symbex degradation: %+v", refOut.Degradations)
	}
	if refOut.Telemetry.Counters["castan.degraded.symbex"] == 0 {
		t.Error("castan.degraded.symbex counter not bumped")
	}
	if refOut.BudgetTicksUsed == 0 {
		t.Error("BudgetTicksUsed = 0 on a budget-cut run")
	}

	refReport, refTrace := degradedRunBytes(t, refRec, refOut)
	for _, w := range []int{4, 8} {
		rec, out := budgetedAnalyze(t, w)
		report, trace := degradedRunBytes(t, rec, out)
		if !bytes.Equal(report, refReport) {
			t.Errorf("W=%d: degraded report differs from W=1:\n%s\n---\n%s", w, report, refReport)
		}
		if !bytes.Equal(trace, refTrace) {
			t.Errorf("W=%d: Chrome trace bytes differ from W=1", w)
		}
	}
}
