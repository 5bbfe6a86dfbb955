package symbex_test

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"castan/internal/castan"
	"castan/internal/expr"
	"castan/internal/memsim"
	"castan/internal/nf"
	"castan/internal/solver"
	"castan/internal/symbex"
)

var updateLocalQueries = flag.Bool("update-local-queries", false,
	"rewrite testdata/lb-ubtree.localqueries from this build (only ever do this at a commit whose localRepair is known good)")

// catalogEngine is the engine castan.Analyze runs on a catalog NF at
// -seed 2018.
func catalogEngine(tb testing.TB, name string, pkts, states int) *symbex.Engine {
	tb.Helper()
	inst, err := nf.New(name)
	if err != nil {
		tb.Fatal(err)
	}
	s, err := castan.NewSearch(inst, memsim.New(memsim.DefaultGeometry(), 2018),
		castan.Config{NPackets: pkts, MaxStates: states, Seed: 2018})
	if err != nil {
		tb.Fatal(err)
	}
	return s.Engine
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
		if maxSteps != symbex.LocalSolverSteps {
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
	if n := e.PinnedLen(); n == 0 || n > posed/4 {
		t.Fatalf("substitution cache holds %d entries for %d constraints posed: it is not being reused", n, posed)
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
	var s *symbex.State
	e.Trace = func(event string, st *symbex.State) {
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
	for last := len(s.Constraints()) - 1; last > 0 && flipped == nil; last-- {
		c := expr.Not(s.Constraints()[last])
		s.TruncateConstraints(last)
		if _, res := e.LocalRepair(s, c); res != solver.Unknown && e.LocalLen() >= 4 {
			flipped = c
		}
	}
	if flipped == nil {
		b.Fatal("no branch decision on the path flips into a decidable local repair")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkModel, _ = e.LocalRepair(s, flipped)
	}
}
