package castan

import (
	"bytes"
	"strings"
	"testing"

	"castan/internal/obs"
)

// TestReportRoundTripTelemetry pins the effort plumbing: symbex's fork
// count reaches the report (it used to be dropped on the floor), and an
// instrumented run's telemetry snapshot survives the JSON round trip.
func TestReportRoundTripTelemetry(t *testing.T) {
	rec := obs.New(obs.NewFakeClock(1000))
	out := analyze(t, "lpm-dl2", Config{NPackets: 6, MaxStates: 1500, Seed: 5, Obs: rec})
	if out.Forks == 0 {
		t.Error("Output.Forks not wired from the symbex result")
	}
	if out.Telemetry == nil {
		t.Fatal("Output.Telemetry missing on an instrumented run")
	}
	if got := out.Telemetry.Counters["symbex.forks"]; got != uint64(out.Forks) {
		t.Errorf("symbex.forks counter = %d, Output.Forks = %d", got, out.Forks)
	}
	if got := out.Telemetry.Counters["symbex.states_explored"]; got != uint64(out.StatesExplored) {
		t.Errorf("symbex.states_explored counter = %d, Output.StatesExplored = %d", got, out.StatesExplored)
	}
	if out.Telemetry.Counters["solver.queries"] == 0 {
		t.Error("no solver queries recorded")
	}
	if len(out.Telemetry.Phases) == 0 {
		t.Error("no pipeline phases recorded")
	}

	var buf bytes.Buffer
	if err := out.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	rep, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Forks != out.Forks {
		t.Errorf("report forks = %d, want %d", rep.Forks, out.Forks)
	}
	if rep.Telemetry == nil {
		t.Fatal("report telemetry lost in round trip")
	}
	for _, name := range []string{"solver.queries", "symbex.forks", "symbex.states_explored"} {
		if rep.Telemetry.Counters[name] != out.Telemetry.Counters[name] {
			t.Errorf("counter %s = %d after round trip, want %d",
				name, rep.Telemetry.Counters[name], out.Telemetry.Counters[name])
		}
	}

	// Uninstrumented runs must not grow a telemetry section.
	plain := analyze(t, "lpm-dl2", Config{NPackets: 6, MaxStates: 1500, Seed: 5})
	if plain.Telemetry != nil {
		t.Error("uninstrumented run produced telemetry")
	}
	buf.Reset()
	if err := plain.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"telemetry"`)) {
		t.Error("uninstrumented report serializes a telemetry section")
	}
}

// TestReadReportIgnoresRetiredFields: a report written before the
// schema lost its taint block and static_cost_bound still loads, passes
// Check, and describes the same outcome as one without them.
func TestReadReportIgnoresRetiredFields(t *testing.T) {
	const current = `{"nf":"nop","packets":[{"index":0,"flow":"","predicted_cycles":7}],"instructions":3}`
	const older = `{"nf":"nop","packets":[{"index":0,"flow":"","predicted_cycles":7}],"instructions":3,
		"taint":{"instructions":3,"untainted":2,"tainted_linear":1,"tainted_opaque":0,"hash_sites":0,"foldable_hash_sites":0},
		"static_cost_bound":1234}`
	a, err := ReadReport(strings.NewReader(current))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReadReport(strings.NewReader(older))
	if err != nil {
		t.Fatalf("older report: %v", err)
	}
	if err := b.Check("nop"); err != nil {
		t.Errorf("older report fails Check: %v", err)
	}
	if !a.SameOutcome(b) {
		t.Errorf("older report decodes to %+v, want %+v", b, a)
	}
}
