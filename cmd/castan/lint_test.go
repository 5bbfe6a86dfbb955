package main

import (
	"bytes"
	"strings"
	"testing"

	"castan/internal/ir"
	"castan/internal/nf"
)

// TestSeedCorpusPasses is the acceptance contract: the gate must accept
// every built-in NF (warnings allowed, errors not).
func TestSeedCorpusPasses(t *testing.T) {
	var mods []*ir.Module
	for _, name := range nf.Names {
		inst, err := nf.New(name)
		if err != nil {
			t.Fatal(err)
		}
		mods = append(mods, inst.Mod)
	}
	var buf bytes.Buffer
	if code := lintModules(mods, false, false, false, &buf); code != 0 {
		t.Fatalf("seed corpus should pass, got exit %d:\n%s", code, buf.String())
	}
	if !strings.Contains(buf.String(), "0 error(s)") {
		t.Fatalf("unexpected output:\n%s", buf.String())
	}
}

// TestDefBeforeUseFixtureFails: a module reading a never-defined register
// must make irlint exit non-zero.
func TestDefBeforeUseFixtureFails(t *testing.T) {
	mod := ir.NewModule("fixture-defuse")
	fb := mod.NewFunc("nf_process", 2)
	bogus := fb.NewReg()
	fb.Ret(fb.AddImm(bogus, 1))
	fb.Seal()
	mod.Layout()

	var buf bytes.Buffer
	if code := lintModules([]*ir.Module{mod}, false, false, false, &buf); code == 0 {
		t.Fatalf("def-before-use fixture should fail:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "possibly-undefined") {
		t.Fatalf("missing defuse diagnostic:\n%s", buf.String())
	}
}

// TestOutOfExtentFixtureFails: a module with a definite out-of-bounds
// store must make irlint exit non-zero.
func TestOutOfExtentFixtureFails(t *testing.T) {
	mod := ir.NewModule("fixture-extent")
	g := mod.AddGlobal("tbl", 128, 0)
	mod.Layout()
	fb := mod.NewFunc("nf_process", 2)
	fb.Store(fb.GlobalAddr(g), 128, fb.Const(1), 4)
	fb.RetImm(0)
	fb.Seal()

	var buf bytes.Buffer
	if code := lintModules([]*ir.Module{mod}, false, false, false, &buf); code == 0 {
		t.Fatalf("out-of-extent fixture should fail:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "out of extent") {
		t.Fatalf("missing memregion diagnostic:\n%s", buf.String())
	}
}

// TestWerrorPromotesWarnings: lpm-dl2's data-dependent stage-2 index is a
// warning by default and a failure under -werror.
func TestWerrorPromotesWarnings(t *testing.T) {
	inst, err := nf.New("lpm-dl2")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if code := lintModules([]*ir.Module{inst.Mod}, false, false, false, &buf); code != 0 {
		t.Fatalf("lpm-dl2 should pass by default:\n%s", buf.String())
	}
	if code := lintModules([]*ir.Module{inst.Mod}, false, true, false, &buf); code != 1 {
		t.Fatalf("lpm-dl2 should fail under -werror, got %d", code)
	}
}
