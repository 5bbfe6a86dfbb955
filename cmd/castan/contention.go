// castan contention reverse-engineers the simulated processor's L3
// contention sets by timed pointer-chase probing (§3.2), printing a
// summary and optionally the full sets. The hidden slice hash is never
// consulted: only probe timings are.

package main

import (
	"fmt"
	"io"

	"castan/internal/cachemodel"
	"castan/internal/memsim"
)

func contentionCmd(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("castan contention", stderr)
	var (
		lines   = fs.Int("lines", 2600, "pool size in cache lines")
		stride  = fs.Int("stride", 8, "pool sampling stride in lines")
		sets    = fs.Int("sets", 6, "how many contention sets to discover (0 = all)")
		seed    = fs.Uint64("seed", 2018, "machine seed (fixes the hidden hash)")
		base    = fs.Uint64("base", 0x10000000, "base address of the probed region")
		verbose = fs.Bool("v", false, "print every member address")
	)
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}

	geo := memsim.DefaultGeometry()
	hier := memsim.New(geo, *seed)
	fmt.Fprintf(stdout, "probing %s (associativity %d, %d hidden sets)\n",
		geo, geo.L3Assoc(), geo.NumContentionSets())

	pool := make([]uint64, 0, *lines)
	for i := 0; i < *lines; i++ {
		pool = append(pool, *base+uint64(i**stride*geo.LineBytes))
	}
	model, err := cachemodel.Discover(hier, cachemodel.DiscoverConfig{
		Pool:      pool,
		Assoc:     geo.L3Assoc(),
		LineBytes: geo.LineBytes,
		LatL3:     geo.LatL3,
		LatDRAM:   geo.LatDRAM,
		MaxSets:   *sets,
		Seed:      *seed,
	})
	if err != nil {
		return fail(stderr, "contention", err)
	}
	fmt.Fprintf(stdout, "discovered %d contention sets from a %d-line pool:\n", len(model.Sets), len(pool))
	for i, s := range model.Sets {
		fmt.Fprintf(stdout, "  set %d: %d members", i, len(s.Addrs))
		// Ground-truth check via the debug backdoor (the real tool cannot
		// do this; it is printed here to demonstrate discovery quality).
		consistent := true
		want := hier.DebugContentionSet(s.Addrs[0])
		for _, a := range s.Addrs {
			if hier.DebugContentionSet(a) != want {
				consistent = false
				break
			}
		}
		fmt.Fprintf(stdout, " (hidden set %d, consistent=%v)\n", want, consistent)
		if *verbose {
			for _, a := range s.Addrs {
				fmt.Fprintf(stdout, "    %#x\n", a)
			}
		}
	}
	return 0
}
