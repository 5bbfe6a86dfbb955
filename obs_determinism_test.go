package repro

import (
	"bytes"
	"testing"

	"castan/internal/castan"
	"castan/internal/memsim"
	"castan/internal/nf"
	"castan/internal/obs"
)

// The observability golden (DESIGN.md decision 8): an instrumented
// analysis under the fake clock must emit byte-identical metrics JSON
// and Chrome-trace bytes at W=1, W=4 and W=8 — telemetry obeys the same
// determinism rule as the analysis output it describes.

func instrumentedAnalyze(t *testing.T, workers int) (*obs.Recorder, *castan.Output) {
	t.Helper()
	inst, err := nf.New("lb-chain")
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New(obs.NewFakeClock(1000))
	hier := memsim.New(memsim.DefaultGeometry(), 2018)
	out, err := castan.Analyze(inst, hier, castan.Config{
		NPackets:  10,
		MaxStates: 4000,
		Seed:      2018,
		Workers:   workers,
		Obs:       rec,
	})
	if err != nil {
		t.Fatalf("Analyze(W=%d): %v", workers, err)
	}
	return rec, out
}

func telemetryBytes(t *testing.T, rec *obs.Recorder) (metrics, trace []byte) {
	t.Helper()
	var mb, tb bytes.Buffer
	if err := rec.Snapshot().WriteJSON(&mb); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteChromeTrace(&tb); err != nil {
		t.Fatal(err)
	}
	return mb.Bytes(), tb.Bytes()
}

func TestWorkerCountDeterminismTelemetry(t *testing.T) {
	refRec, refOut := instrumentedAnalyze(t, 1)
	refMetrics, refTrace := telemetryBytes(t, refRec)

	// The run must actually exercise the instrumented layers.
	for _, name := range []string{
		"solver.queries", "symbex.states_explored", "symbex.forks",
		"memsim.dram_misses", "castan.havocs",
	} {
		if refOut.Telemetry.Counters[name] == 0 {
			t.Errorf("counter %s is zero; run did not exercise its layer", name)
		}
	}
	if tr, err := obs.ReadChromeTrace(bytes.TrimSpace(refTrace)); err != nil || len(tr.Spans) == 0 {
		t.Fatalf("trace fails its own schema: %v", err)
	}
	wantPhases := map[string]bool{}
	for _, p := range refOut.Telemetry.Phases {
		wantPhases[p.Name] = true
	}
	for _, name := range []string{"castan.analyze", "castan.static", "castan.discover",
		"castan.icfg", "castan.symbex", "castan.reconcile"} {
		if !wantPhases[name] {
			t.Errorf("phase %s missing from telemetry: %+v", name, refOut.Telemetry.Phases)
		}
	}

	for _, w := range []int{4, 8} {
		rec, _ := instrumentedAnalyze(t, w)
		metrics, trace := telemetryBytes(t, rec)
		if !bytes.Equal(metrics, refMetrics) {
			t.Errorf("W=%d: metrics JSON differs from W=1:\n%s\n---\n%s", w, metrics, refMetrics)
		}
		if !bytes.Equal(trace, refTrace) {
			t.Errorf("W=%d: Chrome trace bytes differ from W=1", w)
		}
	}
}
