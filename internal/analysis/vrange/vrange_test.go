package vrange

import (
	"testing"

	"castan/internal/analysis"
	"castan/internal/ir"
)

func TestDomainOps(t *testing.T) {
	if !Single(5).Contains(5) || Single(5).Contains(6) {
		t.Error("singleton containment")
	}
	r := VRange{Lo: 0, Hi: 100, Stride: 8, Rem: 4}
	if !r.Contains(12) || r.Contains(13) || r.Contains(104) {
		t.Error("congruence containment")
	}
	j := join(Single(8), Single(20))
	if !j.Contains(8) || !j.Contains(20) || j.Stride != 12 || j.Rem != 8 {
		t.Errorf("join congruence: got %v", j)
	}
	if j.Contains(9) {
		t.Error("join must keep the mod-12 congruence")
	}
	if g := join(bot(), Single(7)); g != Single(7) {
		t.Errorf("join with bottom: got %v", g)
	}
	w := widen(Range(0, 10), Range(0, 11))
	if w.Hi != ^uint64(0) {
		t.Errorf("widen must blow the growing bound: got %v", w)
	}
	n := normalize(VRange{Lo: 3, Hi: 30, Stride: 8, Rem: 4})
	if n.Lo != 4 || n.Hi != 28 {
		t.Errorf("normalize must snap endpoints to the congruence: got %v", n)
	}
}

func TestTransferBin(t *testing.T) {
	cases := []struct {
		op       ir.BinOp
		a, b     VRange
		in       []uint64 // values that must be contained
		out      []uint64 // values that must not be
		wantFull bool
	}{
		{op: ir.Add, a: Range(0, 10), b: Single(5), in: []uint64{5, 15}, out: []uint64{4, 16}},
		{op: ir.Add, a: Full(), b: Full(), wantFull: true},
		{op: ir.Sub, a: Range(20, 30), b: Single(5), in: []uint64{15, 25}, out: []uint64{14, 26}},
		{op: ir.Sub, a: Single(0), b: Range(0, 1), in: []uint64{0, ^uint64(0)}},
		{op: ir.Mul, a: Range(0, 10), b: Single(8), in: []uint64{0, 80, 8}, out: []uint64{81, 4}},
		{op: ir.UDiv, a: Range(10, 100), b: Single(10), in: []uint64{1, 10}, out: []uint64{0, 11}},
		{op: ir.UDiv, a: Range(10, 100), b: Single(0), in: []uint64{0}, out: []uint64{1}},
		{op: ir.URem, a: Full(), b: Single(16), in: []uint64{0, 15}, out: []uint64{16}},
		{op: ir.And, a: Full(), b: Single(0xf8), in: []uint64{0, 8, 0xf8}, out: []uint64{1, 7}},
		{op: ir.Or, a: Range(0, 0xf), b: Range(0, 0xf0), in: []uint64{0xff, 0}, out: []uint64{0x100}},
		{op: ir.Xor, a: Range(0, 0xf), b: Range(0, 0xf0), in: []uint64{0xff, 0}, out: []uint64{0x100}},
		{op: ir.Shl, a: Range(0, 7), b: Single(3), in: []uint64{0, 56, 8}, out: []uint64{57, 4}},
		{op: ir.Shl, a: Range(0, 7), b: Single(64), in: []uint64{0}, out: []uint64{1}},
		{op: ir.Lshr, a: Range(0, 0xff), b: Single(4), in: []uint64{0, 0xf}, out: []uint64{0x10}},
	}
	for _, c := range cases {
		got := transferBin(c.op, c.a, c.b)
		if c.wantFull && !got.IsFull() {
			t.Errorf("%v(%v,%v) = %v, want full", c.op, c.a, c.b, got)
		}
		for _, v := range c.in {
			if !got.Contains(v) {
				t.Errorf("%v(%v,%v) = %v must contain %#x", c.op, c.a, c.b, got, v)
			}
		}
		for _, v := range c.out {
			if got.Contains(v) {
				t.Errorf("%v(%v,%v) = %v must exclude %#x", c.op, c.a, c.b, got, v)
			}
		}
	}
	// Exhaustive cross-check of every binop against concrete semantics
	// over small operand ranges.
	ops := []ir.BinOp{ir.Add, ir.Sub, ir.Mul, ir.UDiv, ir.URem, ir.And, ir.Or, ir.Xor, ir.Shl, ir.Lshr}
	ra, rb := Range(3, 9), VRange{Lo: 0, Hi: 64, Stride: 4, Rem: 0}
	for _, op := range ops {
		got := transferBin(op, ra, rb)
		for va := ra.Lo; va <= ra.Hi; va++ {
			for vb := rb.Lo; vb <= rb.Hi; vb += 4 {
				if cv := op.Eval(va, vb); !got.Contains(cv) {
					t.Fatalf("%v: %v op %v → %#x outside %v", op, va, vb, cv, got)
				}
			}
		}
	}
}

func TestTransferCmp(t *testing.T) {
	if got := transferCmp(ir.Eq, Range(0, 5), Range(10, 20)); got != Single(0) {
		t.Errorf("disjoint Eq: got %v", got)
	}
	// Same interval, disjoint congruences: 4k vs 4k+1 can never be equal.
	a := VRange{Lo: 0, Hi: 100, Stride: 4, Rem: 0}
	b := VRange{Lo: 0, Hi: 100, Stride: 4, Rem: 1}
	if got := transferCmp(ir.Eq, a, b); got != Single(0) {
		t.Errorf("congruence-disjoint Eq: got %v", got)
	}
	if got := transferCmp(ir.Ne, a, b); got != Single(1) {
		t.Errorf("congruence-disjoint Ne: got %v", got)
	}
	if got := transferCmp(ir.Ult, Range(0, 5), Range(10, 20)); got != Single(1) {
		t.Errorf("ordered Ult: got %v", got)
	}
	if got := transferCmp(ir.Ult, Range(10, 20), Range(0, 5)); got != Single(0) {
		t.Errorf("inverted Ult: got %v", got)
	}
	if got := transferCmp(ir.Ult, Range(0, 15), Range(10, 20)); got != Range(0, 1) {
		t.Errorf("overlapping Ult: got %v", got)
	}
}

// buildDeadBranch constructs a module where `len & 0xff < 0x900` is a
// tautology (len ≤ 0x800 by the entry hint... the mask already bounds it
// to 0xff) and an `if x > 0xfff` with x ∈ [0,0xff] is impossible.
func buildDeadBranch(t *testing.T) *ir.Module {
	t.Helper()
	m := ir.NewModule("deadbranch")
	g := m.AddGlobal("tbl", 256, 64)
	m.Layout()
	fb := m.NewFunc("nf_process", 2)
	pkt := fb.Param(0)
	acc := fb.Var(fb.Load(pkt, 0, 1)) // one byte: [0, 0xff]
	// Always-true guard: a byte is always < 0x100.
	fb.If(fb.CmpUlt(acc.R(), fb.Const(0x100)), func() {
		acc.Set(fb.AddImm(acc.R(), 1))
	}, func() {
		// dead
		acc.Set(fb.Load(fb.GlobalAddr(g), 0, 8))
	})
	fb.Ret(acc.R())
	fb.Seal()
	if err := m.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	return m
}

func TestDeadEdgeDetection(t *testing.T) {
	m := buildDeadBranch(t)
	mf := analysis.ForModule(m)
	a := Run(mf, Config{EntryHints: NFEntryRanges()})
	s := a.Stats()
	if s.DecidedBranches != 1 {
		t.Fatalf("want 1 decided branch, got %+v", s)
	}
	if s.UnreachableBlocks != 1 {
		t.Fatalf("want 1 unreachable block (the dead else), got %+v", s)
	}
	// The decided branch must be decided "true" (byte < 0x100 always).
	decided := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op != ir.OpCondBr {
					continue
				}
				if take, ok := a.BranchDecided(in); ok {
					decided++
					if !take {
						t.Errorf("branch decided false, want true")
					}
				}
			}
		}
	}
	if decided != 1 {
		t.Errorf("BranchDecided count = %d", decided)
	}
}

func TestEntryConvention(t *testing.T) {
	m := ir.NewModule("entry")
	m.Layout()
	fb := m.NewFunc("nf_process", 2)
	pkt := fb.Param(0)
	ln := fb.Param(1)
	sum := fb.Add(pkt, ln)
	fb.Ret(sum)
	fb.Seal()
	if err := m.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	mf := analysis.ForModule(m)
	a := Run(mf, Config{EntryHints: NFEntryRanges()})
	var addInstr *ir.Instr
	for _, b := range m.Funcs["nf_process"].Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpBin && in.Bin == ir.Add {
				addInstr = in
			}
		}
	}
	r, ok := a.Of(addInstr)
	if !ok {
		t.Fatal("no fact for pkt+len")
	}
	if r.Lo != ir.PacketBase || r.Hi != ir.PacketBase+ir.PacketSlot {
		t.Errorf("pkt+len range: got %v", r)
	}
}

func TestNoHintsNoOp(t *testing.T) {
	m := ir.NewModule("nohints")
	m.Layout()
	fb := m.NewFunc("nf_process", 2)
	fb.Ret(fb.Const(0))
	fb.Seal()
	mf := analysis.ForModule(m)
	a := Run(mf, Config{})
	if s := a.Stats(); s.Funcs != 0 || s.Facts != 0 {
		t.Errorf("hint-less run must analyze nothing: %+v", s)
	}
	if _, ok := a.BranchDecided(&ir.Instr{}); ok {
		t.Error("unknown instruction must not be decided")
	}
}
