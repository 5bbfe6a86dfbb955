package castan

import (
	"sort"
	"testing"

	"castan/internal/budget"
	"castan/internal/faultinject"
	"castan/internal/memsim"
	"castan/internal/nf"
	"castan/internal/obs"
	"castan/internal/store"
)

// TestCatalogMatchesEmission is obs.Catalog's drift check, in both
// directions: every name an instrumented run emits has a row, and every
// row is emitted by some run below (a row whose instrument was renamed or
// deleted fails here). The runs are chosen to light every instrument
// family: a discovery-heavy NF twice through one store (misses and
// writes, then hits), a rainbow-reconciling NF clean and with its symbex
// budget cut, a tree NF whose path constraints the solver refutes
// (reconcile's refutable queries no longer reach it), and the fault
// matrix's plans plus the reconcile worker panic on the NFs where each
// one's degradation lands.
func TestCatalogMatchesEmission(t *testing.T) {
	rec := obs.New(obs.NewFakeClock(1000))
	// A one-slot subscriber nobody drains: the slow-consumer drop path.
	sub := obs.NewChanSub(1)
	sub.CountDrops(rec.Counter(obs.SubDroppedCounter))
	rec.Subscribe(sub)
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cutSymbex := func() *budget.Meter {
		m := budget.New(0)
		m.SetStageLimit(budget.StageSymbex, 8)
		return m
	}
	// The fault matrix's budgets: tight enough that discovery is cut on
	// the ring NFs.
	matrix := func() *budget.Meter {
		m := budget.New(0)
		m.SetStageLimit(budget.StageDiscover, 60_000)
		m.SetStageLimit(budget.StageSymbex, 2_500)
		return m
	}
	type run struct {
		nf  string
		cfg Config
	}
	runs := []run{
		{"lpm-dl1", Config{NPackets: 8, MaxStates: 3000, Seed: 2018, Store: st}},
		{"lpm-dl1", Config{NPackets: 8, MaxStates: 3000, Seed: 2018, Store: st}},
		{"lb-chain", Config{NPackets: 8, MaxStates: 3000, Seed: 2018}},
		{"lb-chain", Config{NPackets: 8, MaxStates: 3000, Seed: 2018, Budget: cutSymbex()}},
		{"lb-chain", Config{NPackets: 4, MaxStates: 2500, Seed: 7,
			Faults: &faultinject.Plan{Name: "worker-panic-reconcile", Seed: 5, PanicStage: faultinject.PanicReconcile}}},
		{"nat-rbtree", Config{NPackets: 3, MaxStates: 800, Seed: 2018}},
	}
	for _, plan := range faultinject.MatrixPlans() {
		runs = append(runs, run{"nat-ring", Config{NPackets: 3, MaxStates: 800, Seed: 7, Budget: matrix(), Faults: plan}})
	}
	for _, r := range runs {
		inst, err := nf.New(r.nf)
		if err != nil {
			t.Fatal(err)
		}
		r.cfg.Obs = rec
		r.cfg.Tables = &testTables
		if _, err := Analyze(inst, memsim.New(memsim.DefaultGeometry(), r.cfg.Seed), r.cfg); err != nil {
			t.Fatalf("%s: %v", r.nf, err)
		}
	}

	m := rec.Snapshot()
	emitted := map[string]obs.InstrumentKind{}
	for n := range m.Counters {
		emitted[n] = obs.CounterKind
	}
	for n := range m.Gauges {
		emitted[n] = obs.GaugeKind
	}
	for n := range m.Histograms {
		emitted[n] = obs.HistogramKind
	}
	for _, p := range m.Phases {
		emitted[p.Name] = obs.PhaseKind
	}

	rows := map[string]bool{}
	for i, in := range obs.Catalog {
		if rows[in.Name] {
			t.Errorf("catalog row %d: %s is declared twice", i, in.Name)
		}
		rows[in.Name] = true
		kind, lit := emitted[in.Name]
		switch {
		case !lit:
			t.Errorf("catalog row %s: no run emits it (stale row, or the sample runs need extending)", in.Name)
		case kind != in.Kind:
			t.Errorf("catalog row %s is a %s, runs emit a %s", in.Name, in.Kind, kind)
		}
	}
	var missing []string
	for n := range emitted {
		if !rows[n] {
			missing = append(missing, n)
		}
	}
	sort.Strings(missing)
	for _, n := range missing {
		t.Errorf("runs emit %s %s, which has no row in obs.Catalog", emitted[n], n)
	}
}
