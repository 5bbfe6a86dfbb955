package analysis

import (
	"testing"

	"castan/internal/ir"
)

func lintMod(t *testing.T, mod *ir.Module) *Report {
	t.Helper()
	mod.Layout()
	if err := mod.Validate(); err != nil {
		t.Fatalf("module invalid: %v", err)
	}
	return Lint(mod, Options{NoDeadDefs: true})
}

func TestMemRegionInExtent(t *testing.T) {
	mod := ir.NewModule("inext")
	g := mod.AddGlobal("tbl", 64, 0)
	mod.Layout()
	fb := mod.NewFunc("f", 0)
	base := fb.GlobalAddr(g)
	fb.Store(base, 56, fb.Const(7), 8) // last full word: still inside
	fb.Ret(fb.Load(base, 0, 8))
	fb.Seal()

	rep := lintMod(t, mod)
	if len(rep.Findings) != 0 {
		t.Fatalf("expected clean report, got %v", rep.Findings)
	}
}

func TestMemRegionOutOfExtent(t *testing.T) {
	mod := ir.NewModule("outext")
	g := mod.AddGlobal("tbl", 64, 0)
	mod.Layout()
	fb := mod.NewFunc("f", 0)
	base := fb.GlobalAddr(g)
	fb.Store(base, 64, fb.Const(7), 1) // first byte past the extent
	fb.RetImm(0)
	fb.Seal()

	rep := lintMod(t, mod)
	if !rep.HasErrors() {
		t.Fatalf("expected out-of-extent error, got %v", rep.Findings)
	}
	fd := rep.Findings[0]
	if fd.Pass != "memregion" || fd.Sev != SevError {
		t.Fatalf("finding = %v, want memregion error", fd)
	}
}

func TestMemRegionMayEscape(t *testing.T) {
	mod := ir.NewModule("mayesc")
	g := mod.AddGlobal("tbl", 256, 0)
	mod.Layout()
	fb := mod.NewFunc("f", 1)
	// A 2-byte load yields [0, 0xffff]; indexing a 256-byte table with it
	// can escape but does not have to.
	idx := fb.Load(fb.Param(0), 0, 2)
	fb.Ret(fb.Load(fb.Add(fb.GlobalAddr(g), idx), 0, 1))
	fb.Seal()

	mod.Layout()
	rep := Lint(mod, Options{
		EntryHints: map[string][]Value{"f": {PacketPtr(0)}},
		NoDeadDefs: true,
	})
	if rep.HasErrors() {
		t.Fatalf("may-escape must be a warning, not an error: %v", rep.Findings)
	}
	if rep.Count(SevWarn) != 1 {
		t.Fatalf("expected exactly one warning, got %v", rep.Findings)
	}
}

func TestMemRegionMaskedIndexStaysIn(t *testing.T) {
	mod := ir.NewModule("masked")
	g := mod.AddGlobal("ring", 1024, 0)
	mod.Layout()
	fb := mod.NewFunc("f", 1)
	// idx & 127, scaled by 8 → offsets [0, 1016]: provably in a 1024-byte
	// region. This is the hash-ring indexing idiom.
	idx := fb.AndImm(fb.Param(0), 127)
	fb.Ret(fb.Load(fb.Add(fb.GlobalAddr(g), fb.MulImm(idx, 8)), 0, 8))
	fb.Seal()

	rep := lintMod(t, mod)
	if len(rep.Findings) != 0 {
		t.Fatalf("masked index should be provably in-extent, got %v", rep.Findings)
	}
}

func TestMemRegionURemBound(t *testing.T) {
	mod := ir.NewModule("urem")
	g := mod.AddGlobal("slots", 128, 0)
	mod.Layout()
	fb := mod.NewFunc("f", 1)
	idx := fb.URem(fb.Param(0), fb.Const(16))
	fb.Ret(fb.Load(fb.Add(fb.GlobalAddr(g), fb.MulImm(idx, 8)), 0, 8))
	fb.Seal()

	rep := lintMod(t, mod)
	if len(rep.Findings) != 0 {
		t.Fatalf("urem-bounded index should be in-extent, got %v", rep.Findings)
	}
}

func TestMemRegionInterprocedural(t *testing.T) {
	mod := ir.NewModule("interproc")
	g := mod.AddGlobal("tbl", 64, 0)
	mod.Layout()

	cb := mod.NewFunc("callee", 1)
	cb.Store(cb.Param(0), 60, cb.Const(1), 8) // 60+8 > 64 once the pointer lands in tbl
	cb.RetImm(0)
	callee := cb.Seal()

	fb := mod.NewFunc("caller", 0)
	fb.Call(callee, fb.GlobalAddr(g))
	fb.RetImm(0)
	fb.Seal()

	rep := lintMod(t, mod)
	if !rep.HasErrors() {
		t.Fatalf("interprocedural out-of-extent store not caught: %v", rep.Findings)
	}
	var fd *Finding
	for i := range rep.Findings {
		if rep.Findings[i].Sev == SevError {
			fd = &rep.Findings[i]
		}
	}
	if fd == nil || fd.Fn.Name != "callee" {
		t.Fatalf("error should be anchored in the callee, got %v", rep.Findings)
	}
}

func TestMemRegionHeapAllocExtent(t *testing.T) {
	mod := ir.NewModule("heap")
	fb := mod.NewFunc("f", 0)
	node := fb.AllocImm(32)
	fb.Store(node, 32, fb.Const(1), 8) // out of the 32-byte allocation
	fb.Ret(fb.Load(node, 0, 8))
	fb.Seal()

	rep := lintMod(t, mod)
	if !rep.HasErrors() {
		t.Fatalf("heap-extent escape not caught: %v", rep.Findings)
	}
}

func TestMemRegionLoopWidening(t *testing.T) {
	// A pointer walked forward in an unbounded loop must converge (via
	// widening) and classify as may-escape, not hang the fixpoint.
	mod := ir.NewModule("widen")
	g := mod.AddGlobal("buf", 4096, 0)
	mod.Layout()
	fb := mod.NewFunc("f", 1)
	p := fb.Var(fb.GlobalAddr(g))
	i := fb.VarImm(0)
	fb.While(func() ir.Reg { return fb.CmpUlt(i.R(), fb.Param(0)) }, func() {
		fb.Store(p.R(), 0, i.R(), 8)
		p.Set(fb.AddImm(p.R(), 8))
		i.Set(fb.AddImm(i.R(), 1))
	})
	fb.RetImm(0)
	fb.Seal()

	rep := lintMod(t, mod)
	if rep.HasErrors() {
		t.Fatalf("widened pointer should warn, not error: %v", rep.Findings)
	}
	if rep.Count(SevWarn) == 0 {
		t.Fatalf("expected a may-escape warning from the widened store")
	}
}

func TestPacketEntryHint(t *testing.T) {
	mod := ir.NewModule("pkt")
	fb := mod.NewFunc("nf_process", 2)
	// Load the IPv4 destination (offset 30 in an Ethernet frame): within
	// the packet slot under the harness hints.
	fb.Ret(fb.Load(fb.Param(0), 30, 4))
	fb.Seal()
	mod.Layout()

	rep := Lint(mod, Options{EntryHints: NFEntryHints(), NoDeadDefs: true})
	if len(rep.Findings) != 0 {
		t.Fatalf("packet header load should be clean, got %v", rep.Findings)
	}

	// Without hints, the parameter is ⊤ and the access is unclassified —
	// no findings either, but also no region attribution.
	mf := ForModule(mod)
	mr := RunMemRegions(mf, nil)
	if len(mr.Accesses) != 1 {
		t.Fatalf("expected 1 access, got %d", len(mr.Accesses))
	}
	if mr.Accesses[0].Class != AccessUnclassified {
		t.Fatalf("hint-free access should be unclassified, got %v", mr.Accesses[0].Class)
	}
}

func TestValueStringAndConstructors(t *testing.T) {
	if got := NumConst(5).String(); got != "0x5" {
		t.Errorf("NumConst(5) = %q", got)
	}
	if got := NumRange(0, 15).String(); got != "[0x0,0xf]" {
		t.Errorf("NumRange = %q", got)
	}
	v := PacketPtr(14)
	reg, lo, hi, ok := v.IsPtr()
	if !ok || reg.Kind != RegionPacket || lo != 14 || hi != 14 {
		t.Errorf("PacketPtr(14) = %v", v)
	}
	if _, _, _, ok := Top().IsPtr(); ok {
		t.Errorf("Top should not be a pointer")
	}
}
