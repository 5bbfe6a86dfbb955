package analysis_test

// Catalog golden for the value-range pass: one line per NF with the
// fixpoint stats (rounds, facts, singletons, decided branches, dead
// edges, unreachable blocks). Like the taint golden, it lives in the external test package so it can
// import internal/nf without a cycle. Regenerate it with
// `go test ./internal/analysis -run TestVRangeCatalogGolden -update`.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"castan/internal/analysis"
	"castan/internal/analysis/vrange"
	"castan/internal/nf"
)

func TestVRangeCatalogGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, name := range nf.Names {
		inst, err := nf.New(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mf := analysis.ForModule(inst.Mod)
		a := vrange.Run(mf, vrange.Config{EntryHints: vrange.NFEntryRanges()})
		if a.Capped {
			t.Errorf("%s: vrange analysis hit a fixpoint cap and degraded to top", name)
		}
		s := a.Stats()
		fmt.Fprintf(&buf, "%s: funcs=%d rounds=%d facts=%d singletons=%d decided=%d dead_edges=%d unreachable=%d\n",
			name, s.Funcs, s.Rounds, s.Facts, s.Singletons, s.DecidedBranches, s.DeadEdges, s.UnreachableBlocks)
	}

	golden := filepath.Join("testdata", "vrange_catalog.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Errorf("vrange catalog drifted from %s (run with -update to regenerate)\ngot:\n%s", golden, buf.String())
	}
}
