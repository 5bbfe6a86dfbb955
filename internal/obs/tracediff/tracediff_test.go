package tracediff

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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

// writeTrace exports rec's metrics and Chrome trace into dir.
func writeTrace(t *testing.T, rec *obs.Recorder, dir string) (metricsPath, tracePath string) {
	t.Helper()
	metricsPath = filepath.Join(dir, "metrics.json")
	if err := rec.Snapshot().WriteJSONFile(metricsPath); err != nil {
		t.Fatal(err)
	}
	tracePath = filepath.Join(dir, "trace.json")
	if err := rec.WriteChromeTraceFile(tracePath); err != nil {
		t.Fatal(err)
	}
	return metricsPath, tracePath
}

func TestLoadRunFromFiles(t *testing.T) {
	rec := obs.New(obs.NewFakeClock(1000))
	rec.Counter("solver.queries").Add(42)
	root := rec.Span("castan.analyze")
	root.Stage("castan.discover").End()
	symbex := root.Stage("castan.symbex")
	for i := 0; i < 3; i++ {
		symbex.Stage("castan.symbex.shard").End()
	}
	symbex.End()
	root.End()
	metricsPath, tracePath := writeTrace(t, rec, t.TempDir())

	run, err := LoadRun(metricsPath, tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if run.Counters["solver.queries"] != 42 {
		t.Errorf("counters = %v", run.Counters)
	}
	if len(run.Spans) != 6 {
		t.Fatalf("spans not loaded: %+v", run.Spans)
	}

	// Trace-only run: counters come from the trace's "C" samples, and
	// phases are the recorder's own by name, count and total ticks.
	tRun, err := LoadRun("", tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if tRun.Counters["solver.queries"] != 42 {
		t.Errorf("trace-only counters = %v", tRun.Counters)
	}
	if want := rec.Snapshot().Phases; !reflect.DeepEqual(tRun.Phases, want) {
		t.Errorf("trace-only phases %+v, want the snapshot's %+v", tRun.Phases, want)
	}

	rep := Diff(run, tRun, 0.05)
	if rep.HasRegressions() {
		t.Errorf("identical runs regressed: %+v", rep.Regressions)
	}
	if rep.BaseCriticalPath == "" || !strings.Contains(rep.BaseCriticalPath, "castan.analyze") {
		t.Errorf("critical path not rendered: %q", rep.BaseCriticalPath)
	}
}

// TestLoadRunRejectsWhatCheckRejects: tracediff and tracediff check read
// traces through one reader, so a file check refuses cannot be diffed —
// not even a valid trace re-serialized onto one line.
func TestLoadRunRejectsWhatCheckRejects(t *testing.T) {
	rec := obs.New(obs.NewFakeClock(1000))
	rec.Span("castan.analyze").End()
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var oneLine bytes.Buffer
	if err := json.Compact(&oneLine, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for i, bad := range []string{
		"",
		"{}",
		"[]",
		oneLine.String(),
		"[\n{\"name\":\"x\"}\n]",
		"[\n{\"name\":\"x\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":0}\n]",
		"[\n{\"name\":\"x\",\"ph\":\"Q\",\"pid\":1,\"tid\":1,\"ts\":0}\n]",
	} {
		path := filepath.Join(dir, fmt.Sprintf("bad%d.json", i))
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := obs.ReadChromeTraceFile(path); err == nil {
			t.Errorf("tracediff check accepts %q", bad)
		}
		if _, err := LoadRun("", path); err == nil {
			t.Errorf("LoadRun accepted %q, which tracediff check refuses", bad)
		}
	}
}

func TestCriticalPathFollowsHeaviestChild(t *testing.T) {
	rec := obs.New(obs.NewFakeClock(1000))
	root := rec.Span("root")
	root.Stage("light").End()
	heavy := root.Stage("heavy")
	inner := heavy.Stage("inner")
	for i := 0; i < 10; i++ {
		rec.NowNanos() // widen the heavy branch
	}
	inner.End()
	heavy.End()
	root.End()
	_, tracePath := writeTrace(t, rec, t.TempDir())
	run, err := LoadRun("", tracePath)
	if err != nil {
		t.Fatal(err)
	}
	want := "root 17000ns (100%) > heavy 13000ns (76%) > inner 11000ns (65%)"
	if got := criticalPath(run.Spans); got != want {
		t.Errorf("critical path = %s, want %s", got, want)
	}
}
