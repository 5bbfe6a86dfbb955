package cachecost

import (
	"strings"
	"testing"

	"castan/internal/analysis"
	"castan/internal/interp"
	"castan/internal/ir"
	"castan/internal/memsim"
)

// runOn lays out, validates, and analyzes a module.
func runOn(t *testing.T, mod *ir.Module, cfg Config) *Analysis {
	t.Helper()
	mod.Layout()
	if err := mod.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	mf := analysis.ForModule(mod)
	mr := analysis.RunMemRegions(mf, analysis.NFEntryHints())
	return Run(mf, mr, cfg)
}

// loadsOf returns the load instructions of a function in program order.
func loadsOf(f *ir.Func) []*ir.Instr {
	var out []*ir.Instr
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpLoad {
				out = append(out, in)
			}
		}
	}
	return out
}

func TestRepeatedLoadAlwaysHit(t *testing.T) {
	m := ir.NewModule("t")
	g := m.AddGlobal("tbl", 64, 64)
	m.Layout()
	fb := m.NewFunc("nf_process", 2)
	addr := fb.GlobalAddr(g)
	fb.Load(addr, 0, 8)
	fb.Load(addr, 0, 8)
	fb.RetImm(0)
	fb.Seal()

	a := runOn(t, m, Config{})
	loads := loadsOf(m.Funcs["nf_process"])
	if got := a.ClassOf(loads[0]); got != AlwaysMiss {
		t.Errorf("first load = %v, want always-miss", got)
	}
	if got := a.ClassOf(loads[1]); got != AlwaysHit {
		t.Errorf("second load = %v, want always-hit", got)
	}
	st := a.FuncStats(m.Funcs["nf_process"])
	if st.Mem != 2 || st.AlwaysHit != 1 || st.AlwaysMiss != 1 || st.Unclassified != 0 {
		t.Errorf("stats = %+v", st)
	}
	if r := st.UnclassifiedRatio(); r != 0 {
		t.Errorf("unclassified ratio = %v, want 0", r)
	}
}

// A possibly-conflicting fill must evict a must line: the hierarchy's L3
// never refreshes recency on upper-level hits, so one fill can push any
// resident line out.
func TestConflictingFillEvictsMust(t *testing.T) {
	m := ir.NewModule("t")
	ga := m.AddGlobal("a", 64, 64)
	gb := m.AddGlobal("b", 64, 64)
	m.Layout()
	fb := m.NewFunc("nf_process", 2)
	pa := fb.GlobalAddr(ga)
	pb := fb.GlobalAddr(gb)
	fb.Load(pa, 0, 8)
	fb.Load(pb, 0, 8)
	fb.Load(pa, 0, 8)
	fb.RetImm(0)
	fb.Seal()

	a := runOn(t, m, Config{Geometry: Geometry{Ways: 8, LineBytes: 64}})
	loads := loadsOf(m.Funcs["nf_process"])
	if got := a.ClassOf(loads[2]); got != Unclassified {
		t.Errorf("re-load after conflicting fill = %v, want unclassified", got)
	}
}

// OpHavoc reads a runtime-resolved key region the memory-region pass does
// not record; it must clobber all must knowledge.
func TestHavocClobbersMust(t *testing.T) {
	m := ir.NewModule("t")
	g := m.AddGlobal("tbl", 64, 64)
	hid := m.AddHash("h", 16, func(b []byte) uint64 { return uint64(len(b)) })
	m.Layout()
	fb := m.NewFunc("nf_process", 2)
	addr := fb.GlobalAddr(g)
	fb.Load(addr, 0, 8)
	fb.Havoc(hid, addr, 8)
	fb.Load(addr, 0, 8)
	fb.RetImm(0)
	fb.Seal()

	a := runOn(t, m, Config{})
	loads := loadsOf(m.Funcs["nf_process"])
	if got := a.ClassOf(loads[1]); got != Unclassified {
		t.Errorf("load after havoc = %v, want unclassified", got)
	}
}

// A callee's exit-must facts (computed from an empty entry cache) hold in
// any calling context and flow back to the caller.
func TestCallSummaryPropagatesExitMust(t *testing.T) {
	m := ir.NewModule("t")
	g := m.AddGlobal("tbl", 64, 64)
	m.Layout()
	cb := m.NewFunc("lookup", 0)
	fb := m.NewFunc("nf_process", 2)
	caddr := cb.GlobalAddr(g)
	cb.Load(caddr, 0, 8)
	cb.RetImm(0)
	callee := cb.Seal()
	fb.Call(callee)
	addr := fb.GlobalAddr(g)
	fb.Load(addr, 0, 8)
	fb.RetImm(0)
	fb.Seal()

	a := runOn(t, m, Config{})
	loads := loadsOf(m.Funcs["nf_process"])
	if got := a.ClassOf(loads[0]); got != AlwaysHit {
		t.Errorf("caller load after callee touch = %v, want always-hit", got)
	}
}

func TestBoundsCountedLoop(t *testing.T) {
	m := ir.NewModule("t")
	g := m.AddGlobal("tbl", 1024, 64)
	m.Layout()
	fb := m.NewFunc("nf_process", 2)
	addr := fb.GlobalAddr(g)
	i := fb.VarImm(0)
	fb.While(func() ir.Reg { return fb.CmpUlt(i.R(), fb.Const(8)) }, func() {
		fb.Load(fb.Add(addr, fb.ShlImm(i.R(), 6)), 0, 8)
		i.Set(fb.AddImm(i.R(), 1))
	})
	fb.RetImm(0)
	fb.Seal()

	a := runOn(t, m, Config{})
	f := m.Funcs["nf_process"]
	fbound, ok := a.FuncBound(f)
	if !ok || fbound == 0 {
		t.Fatalf("FuncBound = %d,%v, want finite nonzero", fbound, ok)
	}
	acy := a.AcyclicPathBound(f)
	if acy == 0 || acy > fbound {
		t.Errorf("AcyclicPathBound = %d, want in (0, %d]", acy, fbound)
	}
	// The 8 loop iterations each pay at least one memory access; the
	// bound must cover 8 misses.
	if fbound < 8*(4+206) {
		t.Errorf("FuncBound = %d, want >= %d (8 misses)", fbound, 8*(4+206))
	}
	// Residual at the function entry covers the whole execution.
	r, ok := a.Residual(f.Entry(), 0)
	if !ok || r != fbound {
		t.Errorf("Residual(entry,0) = %d,%v, want %d,true", r, ok, fbound)
	}
}

func TestBoundsUnboundedLoop(t *testing.T) {
	m := ir.NewModule("t")
	g := m.AddGlobal("tbl", 64, 64)
	m.Layout()
	fb := m.NewFunc("nf_process", 2)
	addr := fb.GlobalAddr(g)
	n := fb.Param(1)
	i := fb.VarImm(0)
	fb.While(func() ir.Reg { return fb.CmpUlt(i.R(), n) }, func() {
		fb.Load(addr, 0, 8)
		i.Set(fb.AddImm(i.R(), 1))
	})
	fb.RetImm(0)
	fb.Seal()

	a := runOn(t, m, Config{})
	f := m.Funcs["nf_process"]
	if _, ok := a.FuncBound(f); ok {
		t.Error("FuncBound bounded for data-dependent loop")
	}
	if acy := a.AcyclicPathBound(f); acy == 0 {
		t.Error("AcyclicPathBound = 0, want finite nonzero")
	}
	// Inside the loop the residual has no static bound either.
	for _, b := range f.Blocks {
		if l := a.fns[f].outerLoop[b]; l != nil {
			if _, ok := a.Residual(b, 0); ok {
				t.Errorf("Residual(%s) bounded inside unbounded loop", b.Name)
			}
		}
	}
}

// TestCrossCheckReportsEvictedAlwaysHit is CrossCheck's negative case: a
// packet-independent load of line a, a straight-line sweep over a table
// four times the simulated L3, then a re-read of a. The sweep evicts a
// from the whole (inclusive) hierarchy, so the re-read reaches DRAM on
// every frame. The honest analysis leaves the re-read unclassified and
// passes; the same analysis with the re-read forced to always-hit must
// be reported, naming the instruction.
func TestCrossCheckReportsEvictedAlwaysHit(t *testing.T) {
	geo := memsim.TinyGeometry()
	m := ir.NewModule("t")
	ga := m.AddGlobal("a", 64, 64)
	sweep := uint64(4 * geo.L3Bytes())
	gb := m.AddGlobal("b", sweep, 64)
	m.Layout()
	fb := m.NewFunc("nf_process", 2)
	pa := fb.GlobalAddr(ga)
	pb := fb.GlobalAddr(gb)
	fb.Load(pa, 0, 8)
	for off := uint64(0); off < sweep; off += 64 {
		fb.Load(pb, off, 8)
	}
	fb.Load(pa, 0, 8)
	fb.RetImm(0)
	fb.Seal()

	a := runOn(t, m, Config{Geometry: Geometry{Ways: geo.L3Assoc(), LineBytes: geo.LineBytes}})
	loads := loadsOf(m.Funcs["nf_process"])
	reread := loads[len(loads)-1]
	if got := a.ClassOf(reread); got == AlwaysHit {
		t.Fatalf("re-read after the sweep classified %v", got)
	}
	frames := [][]byte{make([]byte, 42), make([]byte, 42), make([]byte, 42)}
	check := func() error {
		return CrossCheck(a, interp.NewMachine(m), memsim.New(geo, 1), "nf_process", frames)
	}
	if err := check(); err != nil {
		t.Fatalf("honest analysis: %v", err)
	}

	a.class[reread] = AlwaysHit
	err := check()
	if err == nil {
		t.Fatal("CrossCheck accepted an always-hit load that the sweep evicts")
	}
	if ref := a.Ref(reread); !strings.Contains(err.Error(), ref) {
		t.Errorf("error %q does not name the instruction %s", err, ref)
	}
}
