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
	"rewrite testdata/<nf>.localqueries from this build (only ever do this at a commit whose localRepair is known good)")

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

// localQueryRuns are the explorations TestLocalRepairPosesSameQuery
// replays. lb-ubtree's recording predates the substitution cache.
// nat-ubtree's tree is deeper, and at 12 packets most of a path's
// constraints belong to earlier packets than the one being repaired.
// nat-chain hashes its keys, but with no contention sets to steer its
// addresses it repairs no branch over a hash output. nat-ring's hash
// outputs feed the addresses it concretizes against its contention
// sets, so they enter the free set and those repairs scan the whole
// path. reuse says the run is long enough for the substitution cache to
// be mostly hits.
var localQueryRuns = []struct {
	nf           string
	pkts, states int
	reuse        bool
}{
	{"lb-ubtree", 6, 4000, true},
	{"nat-ubtree", 12, 20000, true},
	{"nat-chain", 6, 4000, false},
	{"nat-ring", 6, 4000, false},
}

// TestLocalRepairPosesSameQuery: how localRepair builds its query
// (which constraints it scans, how it pins them, what it reuses) must
// not change what it asks. Each recording is the stream of local
// queries one exploration posed at a commit whose localRepair is known
// good: per query, the fingerprint of each constraint handed to the
// solver, in order. It is stored as a running FNV-1a digest sampled
// every 16 queries, so a divergence is located to within a block.
func TestLocalRepairPosesSameQuery(t *testing.T) {
	for _, run := range localQueryRuns {
		t.Run(run.nf, func(t *testing.T) {
			checkLocalQueries(t, run.nf, run.pkts, run.states, run.reuse)
		})
	}
}

func checkLocalQueries(t *testing.T, name string, pkts, states int, reuse bool) {
	const block = 16
	path := "testdata/" + name + ".localqueries"
	e := catalogEngine(t, name, pkts, states)
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
	if n := e.PinnedLen(); n == 0 || reuse && n > posed/4 {
		t.Fatalf("substitution cache holds %d entries for %d constraints posed: it is not being reused", n, posed)
	}
}

var sinkModel solver.Model

// BenchmarkLocalRepair is one fork's repair on a deep path: a late
// branch decision of the first completed state is flipped, so
// localRepair pins every path constraint that shares the flipped
// condition's free variables, poses the local problem and solves it.
// The lb-ubtree row frees every variable of the condition, so its scan
// covers the whole path. The nat-ubtree row reopens the last of 24
// packets and frees that packet's bytes only, as fork does; the branch
// it flips lies in packet 23, behind 23 packets' constraints that share
// nothing with it. allocs/op is the number to watch: before the
// substitution cache every call rebuilt every pinned constraint node by
// node.
func BenchmarkLocalRepair(b *testing.B) {
	rows := []struct {
		nf       string
		pkts     int
		inFlight bool
	}{
		{"lb-ubtree", 6, false},
		{"nat-ubtree", 24, true},
	}
	for _, r := range rows {
		repair := flipLateBranch(b, r.nf, r.pkts, r.inFlight)
		b.Run(r.nf, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkModel, _ = repair()
			}
		})
	}
}

// flipLateBranch explores name, truncates its first completed state
// before the deepest branch decision whose flip is a real local problem
// (decided within the cap, over several pinned constraints), and
// returns that flip's repair. With inFlight the state's last packet is
// reopened first, and the repair frees only its bytes.
func flipLateBranch(b *testing.B, name string, pkts int, inFlight bool) func() (solver.Model, solver.Result) {
	e := catalogEngine(b, name, pkts, 4000)
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
		b.Fatalf("%s completed no state", name)
	}
	repair := e.LocalRepair
	if inFlight {
		s.ReopenLastPacket()
		repair = e.LocalRepairInFlight
	}
	for last := len(s.Constraints()) - 1; last > 0; last-- {
		c := expr.Not(s.Constraints()[last])
		s.TruncateConstraints(last)
		if _, res := repair(s, c); res != solver.Unknown && e.LocalLen() >= 4 {
			return func() (solver.Model, solver.Result) { return repair(s, c) }
		}
	}
	b.Fatalf("no branch decision on the %s path flips into a decidable local repair", name)
	return nil
}
