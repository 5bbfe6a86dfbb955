// Quickstart: analyze one network function with CASTAN and inspect the
// synthesized adversarial workload.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"castan/internal/castan"
	"castan/internal/memsim"
	"castan/internal/nf"
	"castan/internal/packet"
)

func main() {
	// Build the NF: LPM over a Patricia trie, FIB pre-populated with the
	// paper's nested /8-/32 routes.
	inst, err := nf.New("lpm-trie")
	if err != nil {
		log.Fatal(err)
	}

	// The simulated DUT. CASTAN only ever probes it as a black box.
	hier := memsim.New(memsim.DefaultGeometry(), 42)

	// Synthesize a 10-packet adversarial workload.
	out, err := castan.Analyze(inst, hier, castan.Config{
		NPackets:  10,
		MaxStates: 60000,
		Seed:      42,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("analysis: %.1fs, %d states explored\n",
		out.AnalysisSeconds, out.StatesExplored)
	fmt.Printf("predicted path: %d instructions, %d loads\n\n", out.Instrs, out.Loads)
	fmt.Println("synthesized adversarial packets (note the destinations walking")
	fmt.Println("the trie's deepest, most specific routes):")
	for i, fr := range out.Frames {
		p, err := packet.Parse(fr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %2d: %s\n", i, p.Tuple())
	}

	// Replay the workload through a fresh instance as a sanity check.
	instrs, err := castan.Validate("lpm-trie", out.Frames)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreplay executed %d instructions (CASTAN predicted %d)\n", instrs, out.Instrs)
}
