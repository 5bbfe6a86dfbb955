package castan

import (
	"strings"
	"testing"

	"castan/internal/ir"
	"castan/internal/memsim"
	"castan/internal/nf"
	"castan/internal/obs"
)

// TestStaticGateRejectsBrokenModule checks stage 0: a module with a
// definite out-of-extent store must be rejected before any symbolic
// exploration happens.
func TestStaticGateRejectsBrokenModule(t *testing.T) {
	mod := ir.NewModule("broken")
	g := mod.AddGlobal("tbl", 64, 0)
	mod.Layout()
	fb := mod.NewFunc("nf_process", 2)
	fb.Store(fb.GlobalAddr(g), 64, fb.Const(1), 8)
	fb.RetImm(nf.RetDrop)
	fb.Seal()

	inst := &nf.Instance{Name: "broken", Mod: mod}
	_, err := Analyze(inst, nil, Config{NPackets: 1, MaxStates: 1})
	if err == nil {
		t.Fatal("Analyze accepted a module with an out-of-extent store")
	}
	if !strings.Contains(err.Error(), "static analysis rejects") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestRingShortcutsNeedNoTaint pins what Analyze's engine gets from the
// pinned-havoc sweep skip on the ring NFs at 6 packets and 4000 states:
// 243 candidate-line probes not posed, with no taint analysis attached.
// The skip and the address write-back rest on the pinned havoc symbols
// alone, so an engine whose Taint is nil must still take them.
func TestRingShortcutsNeedNoTaint(t *testing.T) {
	for _, name := range []string{"lb-ring", "nat-ring"} {
		t.Run(name, func(t *testing.T) {
			inst, err := nf.New(name)
			if err != nil {
				t.Fatal(err)
			}
			rec := obs.New(obs.NewFakeClock(1))
			s, err := NewSearch(inst, memsim.New(memsim.DefaultGeometry(), 2018), Config{
				NPackets: 6, MaxStates: 4000, Seed: 2018, Obs: rec, Tables: &testTables,
			})
			if err != nil {
				t.Fatal(err)
			}
			if s.Engine.Taint != nil {
				t.Fatal("NewSearch attached a taint analysis to the engine")
			}
			if _, err := s.Engine.Run(); err != nil {
				t.Fatal(err)
			}
			if got := rec.Snapshot().Counters["solver.queries_avoided"]; got != 243 {
				t.Errorf("solver.queries_avoided = %d, want 243", got)
			}
		})
	}
}
