package castan

import (
	"math/rand"
	"testing"

	"castan/internal/analysis/cachecost"
	"castan/internal/memsim"
	"castan/internal/nf"
	"castan/internal/packet"
)

// TestCrossCheckCatalog extends the must-soundness gate from random
// modules to every catalog NF: the analysis the pipeline runs — refined by
// the discovered contention model on the NFs that have one — classifies
// the real NFs' memory instructions, and a memsim replay of varied traffic
// must never see an always-hit instruction reach DRAM. The replay
// hierarchy has the discovery seed, because the model is only valid for
// that seed's hidden slice hash.
func TestCrossCheckCatalog(t *testing.T) {
	names := nf.Names
	if testing.Short() {
		names = []string{"lb-chain", "lpm-dl1", "nat-ring"}
	}
	const seed = 2018
	geo := memsim.DefaultGeometry()
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			inst, err := nf.New(name)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewSearch(inst, memsim.New(geo, seed), Config{NPackets: 6, Seed: seed})
			if err != nil {
				t.Fatal(err)
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
				if err := cachecost.CrossCheck(s.cc, inst.Machine, memsim.New(geo, seed), "nf_process", frames); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
			}
		})
	}
}

// TestStaticPriorityStepsRegression pins the searcher-efficiency
// acceptance criterion: with the static-cost priority component, the
// searcher must reach the path that ends up best in no more state pops
// than the baseline searcher (icfg potential only), for every example NF.
func TestStaticPriorityStepsRegression(t *testing.T) {
	names := nf.Names
	if testing.Short() {
		names = []string{"lb-chain", "lpm-dl1", "lpm-trie"}
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			cfg := Config{NPackets: 6, MaxStates: 2000, Seed: 1}
			base := cfg
			base.NoStaticCost = true
			with := analyze(t, name, cfg)
			without := analyze(t, name, base)
			if with.StepsToWorstPath == 0 || without.StepsToWorstPath == 0 {
				t.Fatalf("steps-to-worst-path not recorded: with=%d without=%d",
					with.StepsToWorstPath, without.StepsToWorstPath)
			}
			if with.StepsToWorstPath > without.StepsToWorstPath {
				t.Errorf("static priority needed %d pops to the worst path, baseline %d",
					with.StepsToWorstPath, without.StepsToWorstPath)
			}
		})
	}
}
