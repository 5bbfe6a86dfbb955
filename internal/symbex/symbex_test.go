package symbex

import (
	"testing"

	"castan/internal/cachemodel"
	"castan/internal/expr"
	"castan/internal/icfg"
	"castan/internal/interp"
	"castan/internal/ir"
	"castan/internal/memsim"
	"castan/internal/solver"
)

// buildBranchNF: nf_process(pkt, len) reads byte 0; if it is 0xAB it runs
// an expensive multiply chain, otherwise returns immediately.
func buildBranchNF(t *testing.T) *ir.Module {
	t.Helper()
	m := ir.NewModule("branch")
	m.Layout()
	fb := m.NewFunc("nf_process", 2)
	pkt := fb.Param(0)
	b0 := fb.Load(pkt, 0, 1)
	out := fb.VarImm(0)
	fb.If(fb.CmpEqImm(b0, 0xAB), func() {
		v := fb.MulImm(b0, 3)
		for i := 0; i < 20; i++ {
			v = fb.MulImm(v, 7)
		}
		out.Set(v)
	}, nil)
	fb.Ret(out.R())
	fb.Seal()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m
}

func newEngine(t *testing.T, m *ir.Module, cfg Config) *Engine {
	t.Helper()
	an, err := icfg.Analyze(m, 2, icfg.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	// Like production use, the search heuristic assumes deep loops.
	potAn, err := icfg.Analyze(m, 300, icfg.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	return &Engine{
		Mod:               m,
		Analysis:          an,
		PotentialAnalysis: potAn,
		Base:              interp.NewMemory(),
		HeapTop:           ir.HeapBase,
		Cfg:               cfg,
	}
}

func TestDirectedSearchPrefersExpensiveBranch(t *testing.T) {
	m := buildBranchNF(t)
	e := newEngine(t, m, Config{NPackets: 1, PacketLen: 4, MaxStates: 100})
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("no completed state")
	}
	if res.Forks == 0 {
		t.Error("expected at least one fork")
	}
	// The best state must be the expensive branch: byte 0 constrained to
	// 0xAB.
	var s solver.Solver
	model, err := s.Solve(res.Best.Constraints())
	if err != nil {
		t.Fatalf("best state unsat: %v", err)
	}
	if model[e.PacketVar(0, 0)] != 0xAB {
		t.Errorf("byte0 = %#x, want 0xAB", model[e.PacketVar(0, 0)])
	}
	// And it must be costlier than the cheap path (some completed state
	// has lower cost or only one completed: cost must include ~21 muls).
	if res.Best.CurCost < 20*icfg.DefaultCostModel().Mul {
		t.Errorf("best cost %d too low for mul chain", res.Best.CurCost)
	}
}

func TestCrossValidationWithInterpreter(t *testing.T) {
	m := buildBranchNF(t)
	e := newEngine(t, m, Config{NPackets: 1, PacketLen: 4, MaxStates: 100})
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	var s solver.Solver
	model, err := s.Solve(res.Best.Constraints())
	if err != nil {
		t.Fatal(err)
	}
	// Build the concrete packet and run the interpreter down the path.
	mach := interp.NewMachine(m)
	var instrs uint64
	mach.Hooks = interp.Hooks{OnInstr: func(fn *ir.Func, in *ir.Instr) { instrs++ }}
	for i := 0; i < e.Cfg.PacketLen; i++ {
		mach.Mem.StoreByte(ir.PacketBase+uint64(i), byte(model[e.PacketVar(0, i)]))
	}
	ret, err := mach.Call("nf_process", ir.PacketBase, uint64(e.Cfg.PacketLen))
	if err != nil {
		t.Fatal(err)
	}
	if instrs != res.Best.Instrs {
		t.Errorf("interpreter executed %d instrs, symbex predicted %d", instrs, res.Best.Instrs)
	}
	if ret == 0 {
		t.Error("expensive branch should return nonzero")
	}
}

// buildLoopNF: iterates byte0 times (bounded by 200), so the adversarial
// input maximizes the loop count.
func buildLoopNF(t *testing.T) *ir.Module {
	t.Helper()
	m := ir.NewModule("loop")
	m.Layout()
	fb := m.NewFunc("nf_process", 2)
	pkt := fb.Param(0)
	n := fb.Load(pkt, 0, 1)
	i := fb.VarImm(0)
	acc := fb.VarImm(0)
	fb.While(func() ir.Reg { return fb.CmpUlt(i.R(), n) }, func() {
		acc.Set(fb.Add(acc.R(), fb.MulImm(i.R(), 3)))
		i.Set(fb.AddImm(i.R(), 1))
	})
	fb.Ret(acc.R())
	fb.Seal()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestLoopMaximization(t *testing.T) {
	m := buildLoopNF(t)
	e := newEngine(t, m, Config{NPackets: 1, PacketLen: 2, MaxStates: 3000, MaxLoopIters: 400})
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("no completed state")
	}
	var s solver.Solver
	model, err := s.Solve(res.Best.Constraints())
	if err != nil {
		t.Fatal(err)
	}
	// The directed search should have driven byte0 to its maximum, 255.
	if got := model[e.PacketVar(0, 0)]; got < 250 {
		t.Errorf("loop bound byte = %d, want near 255", got)
	}
}

func TestMultiPacketFreshSymbols(t *testing.T) {
	m := buildBranchNF(t)
	e := newEngine(t, m, Config{NPackets: 3, PacketLen: 4, MaxStates: 500})
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("no completed state")
	}
	if res.Best.PacketsDone != 3 || len(res.Best.PacketCosts) != 3 {
		t.Fatalf("packets done %d, costs %d", res.Best.PacketsDone, len(res.Best.PacketCosts))
	}
	var s solver.Solver
	model, err := s.Solve(res.Best.Constraints())
	if err != nil {
		t.Fatal(err)
	}
	// All three packets should take the expensive path independently.
	for p := 0; p < 3; p++ {
		if model[e.PacketVar(p, 0)] != 0xAB {
			t.Errorf("packet %d byte0 = %#x", p, model[e.PacketVar(p, 0)])
		}
	}
}

// buildTableNF: reads a 2-byte index from the packet and loads one entry
// of a 64 KiB table — the minimal NF exhibiting adversarial memory access.
func buildTableNF(t *testing.T) (*ir.Module, *ir.Global) {
	t.Helper()
	m := ir.NewModule("table")
	g := m.AddGlobal("table", 1<<16, 64)
	m.Layout()
	fb := m.NewFunc("nf_process", 2)
	pkt := fb.Param(0)
	idx := fb.Load(pkt, 0, 2) // 16-bit index
	addr := fb.Add(fb.GlobalAddr(g), idx)
	fb.Ret(fb.Load(addr, 0, 1))
	fb.Seal()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m, g
}

func TestAdversarialPointerConcretization(t *testing.T) {
	mod, g := buildTableNF(t)
	geo := memsim.TinyGeometry()
	h := memsim.New(geo, 77)
	// Discover contention sets over the table region.
	var pool []uint64
	for a := g.Addr; a < g.Addr+g.Size; a += 64 {
		pool = append(pool, a)
	}
	model, err := cachemodel.Discover(h, cachemodel.DiscoverConfig{
		Pool:      pool[:256],
		Assoc:     geo.L3Ways,
		LineBytes: geo.LineBytes,
		LatL3:     geo.LatL3,
		LatDRAM:   geo.LatDRAM,
		MaxSets:   2,
		Seed:      3,
	})
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}

	an, err := icfg.Analyze(mod, 2, icfg.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	e := &Engine{
		Mod:      mod,
		Analysis: an,
		Model:    model,
		Base:     interp.NewMemory(),
		HeapTop:  ir.HeapBase,
		Cfg:      Config{NPackets: geo.L3Ways + 2, PacketLen: 2, MaxStates: 2000},
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("no completed state")
	}
	// The engine should have steered enough table accesses into one
	// contention set to exceed associativity.
	if res.Best.ExpectDRAM < uint64(geo.L3Ways) {
		t.Errorf("ExpectDRAM = %d, want >= %d", res.Best.ExpectDRAM, geo.L3Ways)
	}
	// The model must be solvable and the chosen indices distinct enough to
	// land in one hidden set past associativity.
	var s solver.Solver
	mdl, err := s.Solve(res.Best.Constraints())
	if err != nil {
		t.Fatalf("unsat: %v", err)
	}
	setCount := map[int]int{}
	for p := 0; p < e.Cfg.NPackets; p++ {
		idx := mdl[e.PacketVar(p, 0)]<<8 | mdl[e.PacketVar(p, 1)]
		line := (g.Addr + idx) &^ 63
		if si := model.SetOf(line); si >= 0 {
			setCount[si]++
		}
	}
	max := 0
	for _, c := range setCount {
		if c > max {
			max = c
		}
	}
	if max <= geo.L3Ways {
		t.Errorf("largest same-set placement %d, want > α=%d (counts %v)", max, geo.L3Ways, setCount)
	}
}

func TestHavocRecording(t *testing.T) {
	m := ir.NewModule("havoc")
	key := m.AddGlobal("key", 16, 64)
	m.Layout()
	hid := m.AddHash("h", 12, func(b []byte) uint64 { return 0x123 })
	fb := m.NewFunc("nf_process", 2)
	pkt := fb.Param(0)
	// Copy 4 packet bytes into the key buffer, havoc-hash them, and
	// branch on the hash value.
	kaddr := fb.GlobalAddr(key)
	fb.Store(kaddr, 0, fb.Load(pkt, 0, 4), 4)
	hv := fb.Havoc(hid, kaddr, 4)
	fb.If(fb.CmpEqImm(hv, 0x7ff), func() {
		v := fb.MulImm(hv, 3)
		for i := 0; i < 10; i++ {
			v = fb.MulImm(v, 5)
		}
		fb.Ret(v)
	}, nil)
	fb.RetImm(0)
	fb.Seal()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}

	e := newEngine(t, m, Config{NPackets: 1, PacketLen: 4, MaxStates: 200})
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("no completed state")
	}
	if len(res.Best.Havocs) != 1 {
		t.Fatalf("havocs = %d", len(res.Best.Havocs))
	}
	h := res.Best.Havocs[0]
	if h.HashID != hid || len(h.Key) != 4 || len(h.OutVars) != 2 {
		t.Errorf("havoc record = %+v", h)
	}
	// Best path should be the expensive one: hash value pinned to 0x7ff.
	var s solver.Solver
	mdl, err := s.Solve(res.Best.Constraints())
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Out.Eval(mdl); got != 0x7ff {
		t.Errorf("havoced hash = %#x, want 0x7ff", got)
	}
	// Key expressions reference the packet bytes.
	if len(h.Key) != 4 {
		t.Fatalf("key exprs = %d", len(h.Key))
	}
	for i, ke := range h.Key {
		if !ke.HasVars() {
			t.Errorf("key byte %d is concrete: %v", i, ke)
		}
	}
}

func TestInfeasibleSidePruned(t *testing.T) {
	// if byte0 < 10 then (if byte0 > 200 then BOOM) — inner branch
	// infeasible; no state should complete via BOOM.
	m := ir.NewModule("prune")
	m.Layout()
	fb := m.NewFunc("nf_process", 2)
	pkt := fb.Param(0)
	b0 := fb.Load(pkt, 0, 1)
	out := fb.VarImm(0)
	fb.If(fb.CmpUlt(b0, fb.Const(10)), func() {
		fb.If(fb.Cmp(ir.Ugt, b0, fb.Const(200)), func() {
			out.SetImm(999)
		}, nil)
	}, nil)
	fb.Ret(out.R())
	fb.Seal()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, m, Config{NPackets: 1, PacketLen: 2, MaxStates: 100})
	var completed []*State
	e.Trace = func(event string, s *State) {
		if event == "done" {
			completed = append(completed, s)
		}
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var s solver.Solver
	for _, st := range completed {
		mdl, err := s.Solve(st.Constraints())
		if err != nil {
			t.Errorf("completed state %d unsat", st.ID)
			continue
		}
		b := mdl[e.PacketVar(0, 0)]
		if b < 10 && b > 200 {
			t.Error("impossible model")
		}
	}
}

func TestExprHelperMapping(t *testing.T) {
	if binToExpr(ir.Add) != expr.OpAdd || binToExpr(ir.Lshr) != expr.OpLshr {
		t.Error("binToExpr mapping")
	}
	a, b := expr.Var(1), expr.Var(2)
	vals := map[expr.VarID]uint64{1: 5, 2: 3}
	if cmpExpr(ir.Ugt, a, b).Eval(vals) != 1 {
		t.Error("ugt")
	}
	if cmpExpr(ir.Uge, a, b).Eval(vals) != 1 {
		t.Error("uge")
	}
	if cmpExpr(ir.Ult, a, b).Eval(vals) != 0 {
		t.Error("ult")
	}
}

// TestLocalRepairScanBound: a repair whose free bytes all belong to the
// in-flight packet scans only the constraints recorded since that
// packet arrived; one that frees a hash output scans the whole path,
// since an earlier packet's constraints may mention it.
func TestLocalRepairScanBound(t *testing.T) {
	e := &Engine{Cfg: Config{NPackets: 2, PacketLen: 4}} // packet 1 is bytes 4-7, hash outputs from 8
	early := expr.Ult(expr.Var(8), expr.Const(10))       // a hash output constrained during packet 0
	stale := expr.Ult(expr.Var(4), expr.Const(3))        // cannot occur: packet 1's byte before packet 1
	s := &State{
		PacketsDone:     1,
		constraints:     []*expr.Expr{early, stale, expr.Eq(expr.Var(0), expr.Const(1)), expr.Ult(expr.Var(4), expr.Const(100))},
		packetStartCons: 3,
		model:           solver.Model{0: 1, 8: 5},
	}
	var posed []*expr.Expr
	e.QueryTrace = func(cons []*expr.Expr, _ solver.Model, _ int) { posed = append(posed[:0], cons...) }
	for _, tc := range []struct {
		name string
		c    *expr.Expr
		want []*expr.Expr
	}{
		{"packet bytes", expr.Eq(expr.Var(4), expr.Const(7)), []*expr.Expr{s.constraints[3]}},
		{"hash output", expr.Eq(expr.Add(expr.Var(4), expr.Var(8)), expr.Const(20)), []*expr.Expr{early, stale, s.constraints[3]}},
	} {
		posed = nil
		if _, res := e.localRepair(s, tc.c, e.currentPacketFilter(s)); res == solver.Unknown {
			t.Fatalf("%s: local repair undecided", tc.name)
		}
		want := append(tc.want, tc.c)
		if len(posed) != len(want) {
			t.Fatalf("%s: posed %v, want %v", tc.name, posed, want)
		}
		for i := range want {
			if !expr.SameStructure(posed[i], want[i]) {
				t.Fatalf("%s: posed %v, want %v", tc.name, posed, want)
			}
		}
	}
}
