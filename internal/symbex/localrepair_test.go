package symbex

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"castan/internal/analysis"
	"castan/internal/analysis/cachecost"
	"castan/internal/analysis/taint"
	"castan/internal/expr"
	"castan/internal/icfg"
	"castan/internal/ir"
	"castan/internal/memsim"
	"castan/internal/nf"
	"castan/internal/solver"
)

var updateLocalQueries = flag.Bool("update-local-queries", false,
	"rewrite testdata/lb-ubtree.localqueries from this build (only ever do this at a commit whose localRepair is known good)")

// catalogEngine assembles the engine for a catalog NF the way
// castan.Analyze does, minus the cache model.
func catalogEngine(tb testing.TB, name string, pkts, states int) *Engine {
	tb.Helper()
	inst, err := nf.New(name)
	if err != nil {
		tb.Fatal(err)
	}
	mf := analysis.ForModule(inst.Mod)
	mr := analysis.RunMemRegions(mf, analysis.NFEntryHints())
	geo := memsim.DefaultGeometry()
	an, err := icfg.Analyze(inst.Mod, 2, icfg.DefaultCostModel())
	if err != nil {
		tb.Fatal(err)
	}
	potential, err := icfg.Analyze(inst.Mod, pkts+2, icfg.DefaultCostModel())
	if err != nil {
		tb.Fatal(err)
	}
	return &Engine{
		Mod: inst.Mod, Analysis: an, PotentialAnalysis: potential,
		StaticCost: cachecost.Run(mf, mr, cachecost.Config{
			Geometry: cachecost.Geometry{Ways: geo.L3Assoc(), LineBytes: geo.LineBytes},
		}),
		Base: inst.Machine.Mem, HeapTop: ir.HeapBase + inst.Machine.HeapUsed(),
		Cfg: Config{
			Entry: "nf_process", NPackets: pkts, PacketLen: nf.SymbolicPacketLen,
			MaxStates: states, MaxLoopIters: 96,
		},
		Taint: taint.Run(mf, mr, taint.Config{EntryHints: taint.NFEntryTaints()}),
	}
}

// TestLocalRepairPosesSameQuery: caching substituted path constraints
// and reusing scratch must not change what localRepair asks. The
// recording is the stream of local queries a 6-packet / 4000-state
// lb-ubtree exploration posed before the cache existed, when every
// constraint was substituted afresh at every fork: per query, the
// fingerprint of each constraint handed to the solver, in order. It is
// stored as a running FNV-1a digest sampled every 16 queries, so a
// divergence is located to within a block.
func TestLocalRepairPosesSameQuery(t *testing.T) {
	const path, block = "testdata/lb-ubtree.localqueries", 16
	e := catalogEngine(t, "lb-ubtree", 6, 4000)
	h := fnv.New64a()
	var lines []string
	queries, posed := 0, 0
	e.QueryTrace = func(cons []*expr.Expr, _ solver.Model, maxSteps int) {
		if maxSteps != localSolverSteps {
			return // a full solve: the path as is, nothing substituted
		}
		var buf [8]byte
		put := func(v uint64) {
			for i := range buf {
				buf[i] = byte(v >> (8 * i))
			}
			h.Write(buf[:])
		}
		put(uint64(len(cons)))
		posed += len(cons)
		for _, c := range cons {
			put(c.Fingerprint())
		}
		if queries++; queries%block == 0 {
			lines = append(lines, fmt.Sprintf("%d %016x", queries, h.Sum64()))
		}
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	lines = append(lines, fmt.Sprintf("%d %016x", queries, h.Sum64()))
	got := strings.Join(lines, "\n") + "\n"
	if *updateLocalQueries {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	for i, w := range wantLines {
		if i >= len(lines) || lines[i] != w {
			g := "nothing"
			if i < len(lines) {
				g = lines[i]
			}
			t.Fatalf("local queries diverge from the recording in block %d (queries %d-%d): digest line %q, recorded %q",
				i, i*block+1, (i+1)*block, g, w)
		}
	}
	if len(lines) != len(wantLines) {
		t.Fatalf("posed %d local queries, the recording ends after %s", queries, wantLines[len(wantLines)-1])
	}
	if len(e.pinned) == 0 || len(e.pinned) > posed/4 {
		t.Fatalf("substitution cache holds %d entries for %d constraints posed: it is not being reused", len(e.pinned), posed)
	}
}

var sinkModel solver.Model

// BenchmarkLocalRepair is one fork's repair on a deep lb-ubtree path: a
// late branch decision of the first completed state is flipped, so
// localRepair pins every path constraint that shares the flipped
// condition's variables, poses the local problem and solves it. allocs/op
// is the number to watch: before the substitution cache every call
// rebuilt every pinned constraint node by node.
func BenchmarkLocalRepair(b *testing.B) {
	e := catalogEngine(b, "lb-ubtree", 6, 4000)
	var s *State
	e.Trace = func(event string, st *State) {
		if event == "done" && s == nil {
			s = st
		}
	}
	if _, err := e.Run(); err != nil {
		b.Fatal(err)
	}
	if s == nil {
		b.Fatal("lb-ubtree completed no state")
	}
	// Flip the deepest branch decision whose repair is a real local
	// problem: decided within the cap, over several pinned constraints.
	var flipped *expr.Expr
	for last := len(s.constraints) - 1; last > 0 && flipped == nil; last-- {
		c := expr.Not(s.constraints[last])
		s.constraints = s.constraints[:last]
		if _, res := e.localRepair(s, c, nil); res != solver.Unknown && len(e.local) >= 4 {
			flipped = c
		}
	}
	if flipped == nil {
		b.Fatal("no branch decision on the path flips into a decidable local repair")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkModel, _ = e.localRepair(s, flipped, nil)
	}
}
