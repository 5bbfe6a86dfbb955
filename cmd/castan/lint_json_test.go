package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"castan/internal/ir"
	"castan/internal/nf"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestJSONGolden pins the -json output for the whole example-NF catalog.
// The document is deterministic (modules in catalog order, findings
// sorted), so any change to the lint findings shows up as a golden diff
// here.
func TestJSONGolden(t *testing.T) {
	var mods []*ir.Module
	for _, name := range nf.Names {
		inst, err := nf.New(name)
		if err != nil {
			t.Fatal(err)
		}
		mods = append(mods, inst.Mod)
	}
	var buf bytes.Buffer
	if code := lintModules(mods, false, false, true, &buf); code != 0 {
		t.Fatalf("catalog should pass, got exit %d:\n%s", code, buf.String())
	}

	golden := filepath.Join("testdata", "catalog.json.golden")
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
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("-json output drifted from %s (run with -update to regenerate)\ngot:\n%s", golden, buf.String())
	}
}

// TestJSONShape decodes the -json document and checks the invariants the
// schema promises: every catalog module present in catalog order, zero
// errors, and every finding produced by one of analysis.Lint's passes.
func TestJSONShape(t *testing.T) {
	var mods []*ir.Module
	for _, name := range nf.Names {
		inst, err := nf.New(name)
		if err != nil {
			t.Fatal(err)
		}
		mods = append(mods, inst.Mod)
	}
	var buf bytes.Buffer
	if code := lintModules(mods, true, false, true, &buf); code != 0 {
		t.Fatalf("catalog should pass, got exit %d:\n%s", code, buf.String())
	}
	var doc jsonDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if doc.Schema != lintSchema {
		t.Fatalf("schema = %q, want %q", doc.Schema, lintSchema)
	}
	if len(doc.Modules) != len(nf.Names) {
		t.Fatalf("got %d modules, want %d", len(doc.Modules), len(nf.Names))
	}
	lintPasses := map[string]bool{"validate": true, "defuse": true, "liveness": true, "memregion": true}
	for i, jm := range doc.Modules {
		if jm.Module != nf.Names[i] {
			t.Errorf("module %d = %q, want %q", i, jm.Module, nf.Names[i])
		}
		if jm.Errors != 0 {
			t.Errorf("%s: %d errors in a passing catalog", jm.Module, jm.Errors)
		}
		for _, jf := range jm.Findings {
			if !lintPasses[jf.Pass] {
				t.Errorf("%s: finding from pass %q, which analysis.Lint does not run: %s", jm.Module, jf.Pass, jf.Msg)
			}
		}
	}
}
