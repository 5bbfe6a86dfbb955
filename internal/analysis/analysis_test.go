package analysis

import (
	"strings"
	"testing"

	"castan/internal/ir"
	"castan/internal/nf"
)

// buildDiamond returns a function shaped
//
//	entry → (then | else) → join → ret
func buildDiamond(t *testing.T) *ir.Func {
	t.Helper()
	mod := ir.NewModule("diamond")
	fb := mod.NewFunc("f", 1)
	p := fb.Param(0)
	out := fb.VarImm(0)
	fb.If(fb.CmpEqImm(p, 0), func() {
		out.Set(fb.Const(1))
	}, func() {
		out.Set(fb.Const(2))
	})
	fb.Ret(out.R())
	fb.Seal()
	mod.Layout()
	if err := mod.Validate(); err != nil {
		t.Fatalf("diamond module invalid: %v", err)
	}
	return mod.Funcs["f"]
}

func TestCFGFactsDiamond(t *testing.T) {
	f := buildDiamond(t)
	fa := ForFunc(f)

	entry := f.Entry()
	if len(fa.RPO) != len(f.Blocks) {
		t.Fatalf("RPO covers %d of %d blocks", len(fa.RPO), len(f.Blocks))
	}
	if fa.RPO[0] != entry {
		t.Fatalf("RPO[0] = %s, want entry", fa.RPO[0].Name)
	}
	// Entry has no predecessors; every other block has at least one.
	if len(fa.Preds[entry.Index]) != 0 {
		t.Fatalf("entry has %d preds", len(fa.Preds[entry.Index]))
	}
	for _, b := range f.Blocks[1:] {
		if len(fa.Preds[b.Index]) == 0 {
			t.Errorf("block %s has no preds", b.Name)
		}
	}
	// The entry dominates everything; the two arms dominate nothing else.
	for _, b := range f.Blocks {
		if !fa.Dominates(entry, b) {
			t.Errorf("entry should dominate %s", b.Name)
		}
	}
	arms := entry.Terminator()
	join := arms.Blk0.Succs()[0]
	if fa.Dominates(arms.Blk0, join) || fa.Dominates(arms.Blk1, join) {
		t.Errorf("neither arm may dominate the join block")
	}
	if fa.Idom[join.Index] != entry {
		t.Errorf("idom(join) = %s, want entry", fa.Idom[join.Index].Name)
	}
}

func TestLoopForestNestingAndTripBounds(t *testing.T) {
	mod := ir.NewModule("loops")
	fb := mod.NewFunc("f", 0)
	sum := fb.VarImm(0)
	i := fb.VarImm(0)
	fb.While(func() ir.Reg { return fb.CmpUlt(i.R(), fb.Const(10)) }, func() {
		j := fb.VarImm(0)
		fb.While(func() ir.Reg { return fb.CmpUlt(j.R(), fb.Const(3)) }, func() {
			sum.Set(fb.Add(sum.R(), j.R()))
			j.Set(fb.AddImm(j.R(), 1))
		})
		i.Set(fb.AddImm(i.R(), 1))
	})
	fb.Ret(sum.R())
	fb.Seal()
	mod.Layout()
	if err := mod.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}

	fa := ForFunc(mod.Funcs["f"])
	lf := fa.Loops
	if len(lf.Loops) != 2 {
		t.Fatalf("found %d loops, want 2", len(lf.Loops))
	}
	outer, inner := lf.Loops[0], lf.Loops[1]
	if outer.Header.Index > inner.Header.Index {
		outer, inner = inner, outer
	}
	if inner.Parent != outer {
		t.Fatalf("inner.Parent = %v, want outer", inner.Parent)
	}
	if outer.Depth != 1 || inner.Depth != 2 {
		t.Fatalf("depths = %d/%d, want 1/2", outer.Depth, inner.Depth)
	}
	if got := lf.Depth(inner.Header); got != 2 {
		t.Errorf("Depth(inner header) = %d, want 2", got)
	}
	if outer.TripBound != 10 {
		t.Errorf("outer trip bound = %d, want 10", outer.TripBound)
	}
	if inner.TripBound != 3 {
		t.Errorf("inner trip bound = %d, want 3", inner.TripBound)
	}
	if !outer.Contains(inner.Header) || inner.Contains(outer.Header) {
		t.Errorf("containment wrong: outer⊇inner expected")
	}
	for _, h := range lf.Headers() {
		if !lf.IsHeader(h) {
			t.Errorf("header %s not recognized", h.Name)
		}
	}
}

func TestTripBoundUnknownForDataDependentLimit(t *testing.T) {
	mod := ir.NewModule("datadep")
	fb := mod.NewFunc("f", 1)
	limit := fb.Param(0)
	i := fb.VarImm(0)
	fb.While(func() ir.Reg { return fb.CmpUlt(i.R(), limit) }, func() {
		i.Set(fb.AddImm(i.R(), 1))
	})
	fb.Ret(i.R())
	fb.Seal()
	mod.Layout()

	fa := ForFunc(mod.Funcs["f"])
	if len(fa.Loops.Loops) != 1 {
		t.Fatalf("found %d loops, want 1", len(fa.Loops.Loops))
	}
	if b := fa.Loops.Loops[0].TripBound; b != 0 {
		t.Errorf("trip bound = %d, want 0 (unknown: limit is a parameter)", b)
	}
}

func TestLiveness(t *testing.T) {
	f := buildDiamond(t)
	lv := liveness(f)

	// The out variable's register is live out of both arms into the join.
	join := f.Entry().Terminator().Blk0.Succs()[0]
	ret := join.Terminator()
	if ret.Op != ir.OpRet {
		t.Fatalf("join does not end in ret")
	}
	retReg := ret.A
	for _, arm := range f.Entry().Succs() {
		if !lv.LiveOut(arm, retReg) {
			t.Errorf("r%d should be live out of %s", retReg, arm.Name)
		}
	}
	if !lv.LiveIn(join, retReg) {
		t.Errorf("r%d should be live into %s", retReg, join.Name)
	}
	// The condition register dies after the entry block.
	cond := f.Entry().Terminator().A
	if lv.LiveIn(join, cond) {
		t.Errorf("condition r%d should be dead at the join", cond)
	}
}

func TestDefBeforeUseFlagsUndefinedRegister(t *testing.T) {
	mod := ir.NewModule("broken-defuse")
	fb := mod.NewFunc("f", 0)
	bogus := fb.NewReg() // never defined
	fb.Ret(fb.AddImm(bogus, 1))
	fb.Seal()
	mod.Layout()
	if err := mod.Validate(); err != nil {
		t.Fatalf("module should pass structural validation: %v", err)
	}

	rep := Lint(mod, Options{})
	if !rep.HasErrors() {
		t.Fatalf("expected def-before-use error, got none:\n%v", rep.Findings)
	}
	found := false
	for _, fd := range rep.Findings {
		if fd.Pass == "defuse" && fd.Sev == SevError &&
			strings.Contains(fd.Msg, "possibly-undefined") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no defuse error in findings: %v", rep.Findings)
	}
}

func TestDefBeforeUsePathSensitive(t *testing.T) {
	// r defined on only one arm of a branch, then used after the join:
	// must be flagged (the must-analysis meet loses it).
	mod := ir.NewModule("one-arm")
	fb := mod.NewFunc("f", 1)
	p := fb.Param(0)
	r := fb.NewReg()
	fb.If(fb.CmpEqImm(p, 0), func() {
		fb.MovImm(r, 7)
	}, nil)
	fb.Ret(r)
	fb.Seal()
	mod.Layout()

	rep := Lint(mod, Options{})
	if got := rep.Count(SevError); got == 0 {
		t.Fatalf("expected a defuse error for one-arm definition")
	}
}

func TestDeadDefInfo(t *testing.T) {
	mod := ir.NewModule("deadconst")
	fb := mod.NewFunc("f", 0)
	fb.Const(42) // never read
	fb.RetImm(0)
	fb.Seal()
	mod.Layout()

	rep := Lint(mod, Options{})
	if rep.HasErrors() {
		t.Fatalf("unexpected errors: %v", rep.Findings)
	}
	if rep.Count(SevInfo) == 0 {
		t.Fatalf("expected a dead-definition info finding")
	}
	rep = Lint(mod, Options{NoDeadDefs: true})
	if rep.Count(SevInfo) != 0 {
		t.Fatalf("NoDeadDefs should suppress info findings: %v", rep.Findings)
	}
}

func TestHavocSitesDeterministic(t *testing.T) {
	inst, err := nf.New("nat-chain")
	if err != nil {
		t.Fatal(err)
	}
	mf := ForModule(inst.Mod)
	sites := mf.HavocSites()
	if len(sites) == 0 {
		t.Fatalf("nat-chain should contain havoc sites")
	}
	for _, s := range sites {
		if s.HashID < 0 || s.HashID >= len(inst.Mod.Hashes) {
			t.Errorf("site %s/%s/%d has bad hash id %d", s.Fn.Name, s.Block.Name, s.InstrIdx, s.HashID)
		}
	}
	// Same module, same enumeration.
	again := ForModule(inst.Mod).HavocSites()
	if len(again) != len(sites) {
		t.Fatalf("non-deterministic site count: %d vs %d", len(sites), len(again))
	}
	for i := range sites {
		if sites[i] != again[i] {
			t.Errorf("site %d differs between runs", i)
		}
	}
}

// TestLintSeedCorpusClean is the pass pipeline's contract with the NF
// library: no seed NF may produce an error-level finding, and the only
// expected warnings are lpm-dl2's data-dependent stage-2 index (whose
// escape the abstraction genuinely cannot refute).
func TestLintSeedCorpusClean(t *testing.T) {
	for _, name := range nf.Names {
		inst, err := nf.New(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep := Lint(inst.Mod, Options{EntryHints: NFEntryHints(), NoDeadDefs: true})
		if rep.HasErrors() {
			for _, fd := range rep.Findings {
				if fd.Sev == SevError {
					t.Errorf("%s: %s", name, fd)
				}
			}
			continue
		}
		for _, fd := range rep.Findings {
			if fd.Sev == SevWarn && name != "lpm-dl2" {
				t.Errorf("%s: unexpected warning: %s", name, fd)
			}
		}
	}
}
