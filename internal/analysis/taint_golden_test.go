package analysis_test

// Catalog golden for the input-taint dataflow pass: one line per NF with
// the instruction-classification counts and hash-site foldability. Lives
// in the external test package so it can import internal/nf without an
// import cycle (the taint package depends on internal/analysis).
// Regenerate it with
// `go test ./internal/analysis -run TestTaintCatalogGolden -update`.

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"castan/internal/analysis"
	"castan/internal/analysis/taint"
	"castan/internal/nf"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestTaintCatalogGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, name := range nf.Names {
		inst, err := nf.New(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mf := analysis.ForModule(inst.Mod)
		mr := analysis.RunMemRegions(mf, analysis.NFEntryHints())
		a := taint.Run(mf, mr, taint.Config{EntryHints: taint.NFEntryTaints()})
		if a.Capped {
			t.Errorf("%s: taint analysis hit its round cap and degraded to top", name)
		}
		s := a.Stats()
		fmt.Fprintf(&buf, "%s: instrs=%d untainted=%d linear=%d opaque=%d hash_sites=%d foldable=%d\n",
			name, s.Instructions, s.Untainted, s.Linear, s.Opaque, s.HashSites, s.FoldableHashSites)
	}

	golden := filepath.Join("testdata", "taint_catalog.golden")
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
		t.Errorf("taint catalog drifted from %s (run with -update to regenerate)\ngot:\n%s", golden, buf.String())
	}
}
