package tracediff

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"castan/internal/obs"
)

func TestStageOf(t *testing.T) {
	cases := map[string]string{
		"memsim.probe_line_reads":  "castan.discover",
		"castan.store.hits":        "castan.discover",
		"castan.contention_sets":   "castan.discover",
		"symbex.state_pops":        "castan.symbex",
		"solver.queries":           "castan.symbex",
		"rainbow.chains":           "castan.reconcile",
		"castan.havocs_reconciled": "castan.reconcile",
		"castan.degraded.discover": "castan.discover",
		"budget_ticks_used":        "castan.analyze",
		"something.else":           "castan.analyze",
	}
	for name, want := range cases {
		if got := StageOf(name); got != want {
			t.Errorf("StageOf(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestDiffAttributesRegression(t *testing.T) {
	base := &Run{
		Label: "base",
		Counters: map[string]uint64{
			"solver.queries":          1000,
			"memsim.probe_line_reads": 5000,
			"rainbow.chains":          200,
			"unchanged":               7,
		},
		Phases: []obs.Phase{{Name: "castan.discover", Count: 1, TotalNanos: 100}},
	}
	cur := &Run{
		Label: "new",
		Counters: map[string]uint64{
			"solver.queries":          1010, // +1%: inside tolerance
			"memsim.probe_line_reads": 9000, // +80%: the regression
			"rainbow.chains":          150,  // improvement
			"unchanged":               7,
		},
		Phases: []obs.Phase{{Name: "castan.discover", Count: 1, TotalNanos: 180}},
	}
	rep := Diff(base, cur, 0.05)
	if !rep.HasRegressions() {
		t.Fatal("no regressions found")
	}
	if len(rep.Regressions) != 1 || rep.Regressions[0].Name != "memsim.probe_line_reads" {
		t.Fatalf("regressions = %+v, want exactly memsim.probe_line_reads", rep.Regressions)
	}
	if rep.TopStage != "castan.discover" {
		t.Errorf("TopStage = %q, want castan.discover", rep.TopStage)
	}
	// The improvement and the within-tolerance change still appear in the
	// full table; the unchanged counter does not.
	if len(rep.Counters) != 3 {
		t.Errorf("counter table has %d entries, want 3: %+v", len(rep.Counters), rep.Counters)
	}
	if rep.Counters[0].Name != "memsim.probe_line_reads" {
		t.Errorf("table not sorted worst-first: %+v", rep.Counters)
	}
	if len(rep.Phases) != 1 || rep.Phases[0].Stage != "castan.discover" {
		t.Errorf("phase diff = %+v", rep.Phases)
	}

	var buf bytes.Buffer
	rep.Render(&buf)
	out := buf.String()
	for _, want := range []string{"memsim.probe_line_reads", "top regression: castan.discover", "1 counter(s) regressed"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestDiffPhasesNeverGate(t *testing.T) {
	base := &Run{Label: "a", Counters: map[string]uint64{"solver.queries": 10},
		Phases: []obs.Phase{{Name: "castan.symbex", TotalNanos: 100}}}
	cur := &Run{Label: "b", Counters: map[string]uint64{"solver.queries": 10},
		Phases: []obs.Phase{{Name: "castan.symbex", TotalNanos: 100000}}}
	rep := Diff(base, cur, 0.05)
	if rep.HasRegressions() {
		t.Fatalf("phase-only delta gated: %+v", rep.Regressions)
	}
	if len(rep.Phases) != 1 {
		t.Fatalf("phase delta not reported: %+v", rep.Phases)
	}
}

func TestDiffZeroBaseline(t *testing.T) {
	base := &Run{Label: "a", Counters: map[string]uint64{"symbex.forks": 0}}
	cur := &Run{Label: "b", Counters: map[string]uint64{"symbex.forks": 50}}
	rep := Diff(base, cur, 0.05)
	if len(rep.Regressions) != 1 {
		t.Fatalf("zero-baseline growth not flagged: %+v", rep.Regressions)
	}
	if rel := rep.Regressions[0].Rel; rel != 50 {
		t.Errorf("smoothed Rel = %v, want 50 ((50+1)/(0+1)-1)", rel)
	}
}

func TestLoadRunFromFiles(t *testing.T) {
	dir := t.TempDir()
	rec := obs.New(obs.NewFakeClock(1000))
	rec.Counter("solver.queries").Add(42)
	root := rec.Span("castan.analyze")
	child := root.Child("castan.symbex")
	child.End()
	root.End()

	metricsPath := filepath.Join(dir, "metrics.json")
	if err := rec.Snapshot().WriteJSONFile(metricsPath); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(dir, "trace.json")
	if err := rec.WriteChromeTraceFile(tracePath); err != nil {
		t.Fatal(err)
	}

	run, err := LoadRun(metricsPath, tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if run.Counters["solver.queries"] != 42 {
		t.Errorf("counters = %v", run.Counters)
	}
	if run.Tree == nil || len(run.Tree.Roots) != 1 {
		t.Fatalf("tree not loaded: %+v", run.Tree)
	}

	// Trace-only run: counters come from the trace's "C" samples.
	tRun, err := LoadRun("", tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if tRun.Counters["solver.queries"] != 42 {
		t.Errorf("trace-only counters = %v", tRun.Counters)
	}
	if len(tRun.Phases) == 0 {
		t.Error("trace-only run derived no phases")
	}

	rep := Diff(run, tRun, 0.05)
	if rep.HasRegressions() {
		t.Errorf("identical runs regressed: %+v", rep.Regressions)
	}
	if rep.BaseCriticalPath == "" || !strings.Contains(rep.BaseCriticalPath, "castan.analyze") {
		t.Errorf("critical path not rendered: %q", rep.BaseCriticalPath)
	}
}
