package repro

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"castan/internal/obs"
	"castan/internal/obs/tracediff"
	"castan/internal/service"
)

var update = flag.Bool("update", false, "rewrite golden files")

// docs/TELEMETRY.md is a rendering of the two instrument tables —
// obs.Catalog for the analysis pipeline, service.Instruments for the
// daemon — and nothing else, so it is this test's golden file. That the
// tables match what runs actually emit is checked next to the emitters
// (internal/castan TestCatalogMatchesEmission, internal/service
// TestMetricsMatchInstruments); this test only has to hold the document
// to the tables.

func renderCatalog(pipeline, daemon []obs.Instrument) []byte {
	var w bytes.Buffer
	of := func(rows []obs.Instrument, kind obs.InstrumentKind) (out []obs.Instrument) {
		for _, in := range rows {
			if in.Kind == kind {
				out = append(out, in)
			}
		}
		return out
	}
	fmt.Fprintf(&w, "# Telemetry catalog\n\n")
	fmt.Fprintf(&w, "Rendered from the instrument tables `obs.Catalog` (internal/obs/catalog.go)\n")
	fmt.Fprintf(&w, "and `service.Instruments` (internal/service/service.go) — do not edit by\n")
	fmt.Fprintf(&w, "hand. After adding, renaming or re-describing an instrument, edit its row\n")
	fmt.Fprintf(&w, "and run `make telemetry-catalog`.\n\n")
	fmt.Fprintf(&w, "Counters marked **gated** are the perf gate's columns\n")
	fmt.Fprintf(&w, "(`obs.GateCounters`, diffed by `castan bench -compare` and\n")
	fmt.Fprintf(&w, "attributed on failure by `castan tracediff`): deterministic work-item\n")
	fmt.Fprintf(&w, "counts, bit-identical across machines and worker counts for a fixed\n")
	fmt.Fprintf(&w, "(nf, packets, states, seed). Phase durations and the `*_ns` histogram\n")
	fmt.Fprintf(&w, "come from the wall clock and are never gated.\n\n")

	fmt.Fprintf(&w, "## Counters\n\n")
	fmt.Fprintf(&w, "| Counter | Unit | Owner | Stage | Gated | What it counts |\n")
	fmt.Fprintf(&w, "|---|---|---|---|---|---|\n")
	for _, in := range of(pipeline, obs.CounterKind) {
		gate := ""
		if in.Gated {
			gate = "**gated**"
		}
		fmt.Fprintf(&w, "| `%s` | %s | %s | %s | %s | %s |\n", in.Name, in.Unit, in.Owner, tracediff.StageOf(in.Name), gate, in.Desc)
	}
	fmt.Fprintf(&w, "\nA `castan.degraded.<stage>` counter appears only on runs where a budget,\n")
	fmt.Fprintf(&w, "a deadline or a fault cut that stage short, once per entry of the\n")
	fmt.Fprintf(&w, "report's `degradations` list.\n\n")

	fmt.Fprintf(&w, "## Gauges\n\n")
	fmt.Fprintf(&w, "| Gauge | Unit | Owner | What it tracks |\n|---|---|---|---|\n")
	for _, in := range of(pipeline, obs.GaugeKind) {
		fmt.Fprintf(&w, "| `%s` | %s | %s | %s |\n", in.Name, in.Unit, in.Owner, in.Desc)
	}

	fmt.Fprintf(&w, "\n## Histograms\n\n")
	fmt.Fprintf(&w, "| Histogram | Unit | Owner | What it observes |\n|---|---|---|---|\n")
	for _, in := range of(pipeline, obs.HistogramKind) {
		fmt.Fprintf(&w, "| `%s` | %s | %s | %s |\n", in.Name, in.Unit, in.Owner, in.Desc)
	}

	fmt.Fprintf(&w, "\n## Phases (span names)\n\n")
	fmt.Fprintf(&w, "Pipeline-order spans; durations are wall-clock (fake-clock ticks under\n")
	fmt.Fprintf(&w, "test) and feed `castan tracediff`'s attribution and critical-path output.\n\n")
	fmt.Fprintf(&w, "| Phase | What it covers |\n|---|---|\n")
	for _, in := range of(pipeline, obs.PhaseKind) {
		fmt.Fprintf(&w, "| `%s` | %s |\n", in.Name, in.Desc)
	}

	fmt.Fprintf(&w, "\n## Service instruments (castand)\n\n")
	fmt.Fprintf(&w, "Kept on the server's own recorder, not a run's: `GET /metrics` and\n")
	fmt.Fprintf(&w, "`castand -metrics-out` list all of them from start-up. They count\n")
	fmt.Fprintf(&w, "scheduling, so none is gated and none belongs to a pipeline stage.\n\n")
	fmt.Fprintf(&w, "| Instrument | Kind | Unit | Owner | What it tracks |\n|---|---|---|---|---|\n")
	for _, in := range daemon {
		fmt.Fprintf(&w, "| `%s` | %s | %s | %s | %s |\n", in.Name, in.Kind, in.Unit, in.Owner, in.Desc)
	}

	fmt.Fprintf(&w, "\n## Progress events\n\n")
	fmt.Fprintf(&w, "The live event bus (`castan -progress`, `-events`) publishes four\n")
	fmt.Fprintf(&w, "`ProgressEvent` kinds — `stage_begin`, `stage_end` (with the gate\n")
	fmt.Fprintf(&w, "counters' deltas for that stage), `progress` (batch done/total) and\n")
	fmt.Fprintf(&w, "`note` (degradations) — sequence-numbered at single-goroutine\n")
	fmt.Fprintf(&w, "orchestration points so the stream is byte-identical at any worker\n")
	fmt.Fprintf(&w, "count. See DESIGN.md decision 13.\n")
	return w.Bytes()
}

func TestTelemetryCatalog(t *testing.T) {
	const golden = "docs/TELEMETRY.md"
	got := renderCatalog(obs.Catalog, service.Instruments)
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s is not what the instrument tables render to; regenerate with: go test . -run TestTelemetryCatalog -update", golden)
	}

	// What a table can get wrong without any run noticing: an owner that
	// is not where the name is written, a gated row that is not a counter,
	// an empty cell.
	for _, in := range append(append([]obs.Instrument(nil), obs.Catalog...), service.Instruments...) {
		if in.Name == "" || in.Unit == "" || in.Desc == "" {
			t.Errorf("row %+v has an empty cell", in)
		}
		if in.Gated && in.Kind != obs.CounterKind {
			t.Errorf("%s is gated but is a %s: the gate diffs counters only", in.Name, in.Kind)
		}
		if !ownerNames(t, in) {
			t.Errorf("%s: no non-test source file under %s spells the name (or its family's prefix)", in.Name, in.Owner)
		}
	}
	for name, want := range map[string]obs.Instrument{
		"cachecost.fixpoint_iterations": {Owner: "internal/analysis/cachecost", Unit: "iterations"},
		"solver.queries_avoided":        {Owner: "internal/symbex", Unit: "queries"},
		"solver.hint_hits":              {Owner: "internal/solver", Unit: "values"},
	} {
		var got obs.Instrument
		for _, in := range obs.Catalog {
			if in.Name == name {
				got = in
			}
		}
		if got.Owner != want.Owner || got.Unit != want.Unit {
			t.Errorf("%s: owner %q unit %q, want %q %q", name, got.Owner, got.Unit, want.Owner, want.Unit)
		}
	}
}

// ownerNames reports whether some non-test Go file in the row's owner
// directory spells the instrument's name as a string literal — or, for
// the families a call site builds by concatenation
// ("castan.degraded." + stage, "solver.queries_" + result), the name up
// to its last separator.
func ownerNames(t *testing.T, in obs.Instrument) bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(in.Owner, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	literals := [][]byte{[]byte(`"` + in.Name + `"`)}
	if i := strings.LastIndexAny(in.Name, "._"); i >= 0 {
		literals = append(literals, []byte(`"`+in.Name[:i+1]+`"`))
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") || f == "internal/obs/catalog.go" {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, lit := range literals {
			if bytes.Contains(src, lit) {
				return true
			}
		}
	}
	return false
}

// TestGateCountersAreTheBaselineColumns ties the gated rows to the
// checked-in perf baseline: gating a new counter (or un-gating one) is a
// baseline refresh, `make bench-metrics`, in the same change — until
// then the gate silently skips what the baseline lacks.
func TestGateCountersAreTheBaselineColumns(t *testing.T) {
	data, err := os.ReadFile("results/BENCH_castan.json")
	if err != nil {
		t.Fatal(err)
	}
	var baseline struct {
		Rows []struct {
			Counters map[string]uint64 `json:"counters"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(data, &baseline); err != nil || len(baseline.Rows) == 0 {
		t.Fatalf("results/BENCH_castan.json: %v (%d rows)", err, len(baseline.Rows))
	}
	var columns []string
	for name := range baseline.Rows[0].Counters {
		columns = append(columns, name)
	}
	sort.Strings(columns)
	gated := append([]string(nil), obs.GateCounters...)
	sort.Strings(gated)
	if strings.Join(gated, " ") != strings.Join(columns, " ") {
		t.Errorf("gated catalog rows:\n %v\nbaseline columns:\n %v", gated, columns)
	}
}
