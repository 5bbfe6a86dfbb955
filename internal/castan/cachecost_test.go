package castan

import (
	"math/rand"
	"testing"

	"castan/internal/analysis"
	"castan/internal/analysis/cachecost"
	"castan/internal/memsim"
	"castan/internal/nf"
	"castan/internal/packet"
)

// TestCrossCheckCatalog is the must-soundness gate on every catalog NF:
// the abstract cache analysis `castan lint` reports (analysis.Lint's
// facts, the simulated L3's geometry) classifies the NF's memory
// instructions, and no memsim replay may see an always-hit instruction
// reach DRAM. The replays are the NF's own Analyze workload — 6 packets
// at 4000 states under -short, 12 at 60000 otherwise — and three rounds
// of random UDP traffic, each on a fresh hierarchy with the workload's
// seed. The Analyze workload also holds what `castan -validate` enforces:
// when the run is clean and every hash site reconciled, replaying it on
// the concrete interpreter executes exactly the predicted instructions.
func TestCrossCheckCatalog(t *testing.T) {
	geo := memsim.DefaultGeometry()
	if want := (cachecost.Geometry{Ways: geo.L3Assoc(), LineBytes: geo.LineBytes}); cachecost.DefaultGeometry() != want {
		t.Fatalf("cachecost.DefaultGeometry() = %+v, want the simulated L3's %+v", cachecost.DefaultGeometry(), want)
	}
	packets, states := 12, 60000
	if testing.Short() {
		packets, states = 6, 4000
	}
	validated := 0
	for _, name := range nf.Names {
		t.Run(name, func(t *testing.T) {
			inst, err := nf.New(name)
			if err != nil {
				t.Fatal(err)
			}
			out, err := Analyze(inst, memsim.New(geo, 2018), Config{
				NPackets: packets, MaxStates: states, Seed: 2018, Tables: &testTables,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !out.Degraded() && len(out.UnreconciledSites) == 0 {
				instrs, err := Validate(name, out.Frames)
				if err != nil {
					t.Fatal(err)
				}
				if instrs != out.Instrs {
					t.Errorf("validation replay executed %d instructions, prediction %d", instrs, out.Instrs)
				}
				validated++
			} else {
				t.Logf("validation replay not checked: degraded %v, unreconciled sites %v", out.Degraded(), out.UnreconciledSites)
			}

			inst, err = nf.New(name)
			if err != nil {
				t.Fatal(err)
			}
			mf := analysis.ForModule(inst.Mod)
			mr := analysis.RunMemRegions(mf, analysis.NFEntryHints())
			cc := cachecost.Run(mf, mr, cachecost.Config{Geometry: cachecost.DefaultGeometry()})
			if err := cachecost.CrossCheck(cc, inst.Machine, memsim.New(geo, 2018), "nf_process", out.Frames); err != nil {
				t.Fatalf("Analyze workload (%d packets): %v", packets, err)
			}
			for round := int64(0); round < 3; round++ {
				r := rand.New(rand.NewSource(7 + round))
				frames := make([][]byte, 64)
				for i := range frames {
					frames[i] = packet.Build(packet.Spec{
						Proto:   packet.ProtoUDP,
						SrcIP:   r.Uint32(),
						DstIP:   r.Uint32(),
						SrcPort: uint16(r.Uint32()),
						DstPort: uint16(r.Uint32()),
					})
				}
				if err := cachecost.CrossCheck(cc, inst.Machine, memsim.New(geo, 2018), "nf_process", frames); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
			}
		})
	}
	if validated == 0 {
		t.Error("no NF's workload was clean and fully reconciled: the validation replay checked nothing")
	}
}
