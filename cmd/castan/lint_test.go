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

// TestWerrorPromotesWarnings: -werror is a usable gate on the catalog.
// Every NF but lpm-dl2 lints warning-free and passes under it; lpm-dl2's
// one warning — its data-dependent stage-2 index, which memregion cannot
// prove inside dl2_stage2 — passes by default and fails under -werror.
func TestWerrorPromotesWarnings(t *testing.T) {
	for _, name := range nf.Names {
		inst, err := nf.New(name)
		if err != nil {
			t.Fatal(err)
		}
		mods := []*ir.Module{inst.Mod}
		var buf bytes.Buffer
		if code := lintModules(mods, false, false, false, &buf); code != 0 {
			t.Fatalf("%s should pass by default, got exit %d:\n%s", name, code, buf.String())
		}
		want := 0
		if name == "lpm-dl2" {
			want = 1
		}
		buf.Reset()
		if code := lintModules(mods, false, true, false, &buf); code != want {
			t.Errorf("%s: exit %d under -werror, want %d:\n%s", name, code, want, buf.String())
		}
		if name != "lpm-dl2" {
			continue
		}
		var warns []string
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.HasPrefix(line, "warn ") {
				warns = append(warns, line)
			}
		}
		if len(warns) != 1 || !strings.HasPrefix(warns[0], "warn memregion ") ||
			!strings.Contains(warns[0], "dl2_stage2") || !strings.Contains(warns[0], "may escape extent") {
			t.Errorf("lpm-dl2: want exactly the memregion dl2_stage2 extent warning, got %q", warns)
		}
	}
}
