// nat-tree-attack reproduces the algorithmic-complexity result (§5.3,
// Fig. 9): a CASTAN workload that skews a NAT's unbalanced binary tree
// into a linked list, compared against the hand-crafted Manual skew and a
// red-black tree that shrugs both off (Fig. 11).
//
//	go run ./examples/nat-tree-attack
package main

import (
	"fmt"
	"log"

	"castan/internal/castan"
	"castan/internal/memsim"
	"castan/internal/nf"
	"castan/internal/testbed"
	"castan/internal/workload"
)

func main() {
	seed := uint64(2018)
	const packets = 30

	fmt.Println("== CASTAN analysis of nat-ubtree ==")
	inst, err := nf.New("nat-ubtree")
	if err != nil {
		log.Fatal(err)
	}
	hier := memsim.New(memsim.DefaultGeometry(), seed)
	out, err := castan.Analyze(inst, hier, castan.Config{NPackets: packets, MaxStates: 60000, Seed: seed})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("analysis took %.1fs over %d states\n\n", out.AnalysisSeconds, out.StatesExplored)

	opts := testbed.Options{Seed: seed, MeasureCap: 4096}
	manual := workload.FromFrames("Manual", inst.Manual(packets))
	castanWL := workload.FromFrames("CASTAN", out.Frames)
	urn := workload.UniRandN(workload.ProfileNAT, packets, seed+1)

	for _, nfName := range []string{"nat-ubtree", "nat-rbtree"} {
		fmt.Printf("== %s ==\n", nfName)
		fmt.Printf("%-16s %12s %12s\n", "workload", "median ns", "instrs")
		for _, wl := range []*workload.Workload{urn, manual, castanWL} {
			m, err := testbed.Measure(nfName, wl, opts)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-16s %12.0f %12.0f\n", wl.Name, m.Latency.Median(), m.Instrs.Median())
		}
		fmt.Println()
	}
	fmt.Println("On the unbalanced tree, CASTAN and Manual walk ~N nodes per lookup")
	fmt.Println("while the same-size random workload stays logarithmic; the red-black")
	fmt.Println("tree rebalances the skew away, so all three collapse together.")
}
