package castan

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"castan/internal/budget"
	"castan/internal/faultinject"
	"castan/internal/memsim"
	"castan/internal/nf"
	"castan/internal/obs"
	"castan/internal/parallel"
	"castan/internal/store"
)

// analyzeLBChain runs one lb-chain analysis on its own instance and
// hierarchy, with no shared TableCache unless cfg names one.
func analyzeLBChain(t *testing.T, cfg Config) (*Output, error) {
	t.Helper()
	inst, err := nf.New("lb-chain")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 2018
	return Analyze(inst, memsim.New(memsim.DefaultGeometry(), 2018), cfg)
}

// settledGoroutines returns the goroutine count once it is at most limit,
// or after a second. The runtime counts a goroutine until it has torn it
// down, which happens after the last thing the goroutine synchronizes on,
// so one that has finished its work — a table goroutine just joined, a
// fan-out worker just waited for — can still be counted for a moment;
// under the race detector, for milliseconds.
func settledGoroutines(limit int) int {
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > limit && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	return runtime.NumGoroutine()
}

// TestAnalyzeJoinsTableWork holds Analyze to joining the table work it
// starts, on every return path. The seam makes each table build sleep
// 20 ms first, longer than lb-chain's discovery and symbex on the early
// paths, so the table goroutine is still busy when the pipeline is done
// with it: every build must have finished by the time Analyze returns,
// read right at return, and no goroutine Analyze started may be left.
func TestAnalyzeJoinsTableWork(t *testing.T) {
	var builds atomic.Int32
	tableBuildFault = func(int) {
		time.Sleep(20 * time.Millisecond)
		builds.Add(1)
	}
	t.Cleanup(func() { tableBuildFault = nil })
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cutStore, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
		// check inspects a run that returned an output.
		check func(t *testing.T, out *Output)
		fails bool
		// noTables is set where Analyze starts no table work.
		noTables bool
	}{
		{name: "clean", cfg: Config{NPackets: 6, MaxStates: 4000},
			check: func(t *testing.T, out *Output) {
				if out.Degraded() || out.HavocsReconciled == 0 {
					t.Fatalf("clean run: degradations %v, %d havocs reconciled", out.Degradations, out.HavocsReconciled)
				}
			}},
		{name: "no-rainbow", cfg: Config{NPackets: 6, MaxStates: 4000, NoRainbow: true}, noTables: true,
			check: func(t *testing.T, out *Output) {
				if out.HavocsReconciled != 0 {
					t.Fatalf("NoRainbow run reconciled %d havocs", out.HavocsReconciled)
				}
			}},
		{name: "budget-cut", cfg: Config{NPackets: 4, MaxStates: 1200, Budget: budget.New(200),
			Store: cutStore, Obs: obs.New(obs.NewFakeClock(1))},
			check: func(t *testing.T, out *Output) {
				// A run that does not reconcile still records the store
				// work its table build did, and only that.
				c := out.Telemetry.Counters
				if c["castan.store.writes"] != 1 || c["rainbow.tables"] != 0 {
					t.Fatalf("cut run: castan.store.writes %d, rainbow.tables %d; want 1 and 0",
						c["castan.store.writes"], c["rainbow.tables"])
				}
				for _, d := range out.Degradations {
					if d.Stage == "symbex" && strings.Contains(d.Fallback, "partial state") {
						return
					}
				}
				t.Fatalf("200-tick run shipped no partial state: %v", out.Degradations)
			}},
		{name: "chain-corrupt", cfg: Config{NPackets: 6, MaxStates: 4000,
			Faults: &faultinject.Plan{Name: "chain-corrupt", Seed: 3, CorruptChainEvery: 1}},
			check: func(t *testing.T, out *Output) {
				for _, d := range out.Degradations {
					if d.Stage == "rainbow" {
						return
					}
				}
				t.Fatalf("corrupted table was not dropped: %v", out.Degradations)
			}},
		{name: "store-cold", cfg: Config{NPackets: 6, MaxStates: 4000, Store: st}},
		{name: "store-warm", cfg: Config{NPackets: 6, MaxStates: 4000, Store: st, Obs: obs.New(obs.NewFakeClock(1))},
			check: func(t *testing.T, out *Output) {
				// lb-chain's discovery finds no set, so only the table
				// is stored.
				if c := out.Telemetry.Counters; c["castan.store.hits"] != 1 || c["castan.store.writes"] != 0 {
					t.Fatalf("warm run: store hits %d, writes %d; want the table to hit",
						c["castan.store.hits"], c["castan.store.writes"])
				}
			}},
		{name: "error", cfg: Config{NPackets: 6, MaxStates: 5}, fails: true},
	}
	// The cases run on the test's own goroutine, not as subtests: an
	// exiting subtest goroutine would itself move the count.
	for _, c := range cases {
		builds.Store(0)
		before := runtime.NumGoroutine()
		out, err := analyzeLBChain(t, c.cfg)
		want := int32(1) // lb-chain has one hash site
		if c.noTables {
			want = 0
		}
		if got := builds.Load(); got != want {
			t.Fatalf("%s: %d table builds finished when Analyze returned, want %d", c.name, got, want)
		}
		if after := settledGoroutines(before); after > before {
			t.Fatalf("%s: %d goroutines after Analyze returned, %d before", c.name, after, before)
		}
		switch {
		case c.fails && err == nil:
			t.Fatalf("%s: Analyze succeeded; the case needs an error return", c.name)
		case c.fails:
		case err != nil:
			t.Fatalf("%s: %v", c.name, err)
		case c.check != nil:
			c.check(t, out)
		}
	}
}

// TestTableBuildPanicReachesCaller panics inside the table goroutine's
// build: Analyze must re-raise that panic on its caller's goroutine,
// having joined the goroutine first, instead of crashing the process. A
// shared-cache build goes through parallel.Group.Do, which contains the
// panic as a *parallel.Panic; a chain-corrupt run builds privately and
// re-raises the value itself.
func TestTableBuildPanicReachesCaller(t *testing.T) {
	const boom = "injected table build panic"
	tableBuildFault = func(int) { panic(boom) }
	t.Cleanup(func() { tableBuildFault = nil })
	for _, c := range []struct {
		name    string
		faults  *faultinject.Plan
		wrapped bool
	}{
		{name: "cache", wrapped: true},
		{name: "private", faults: &faultinject.Plan{Seed: 3, CorruptChainEvery: 1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			got := func() (v any) {
				defer func() { v = recover() }()
				analyzeLBChain(t, Config{NPackets: 6, MaxStates: 4000, Faults: c.faults})
				return nil
			}()
			if after := settledGoroutines(before); after > before {
				t.Fatalf("%d goroutines after the panic, %d before", after, before)
			}
			if c.wrapped {
				p, ok := got.(*parallel.Panic)
				if !ok || p.Value != boom {
					t.Fatalf("recovered %v (%T), want a *parallel.Panic of %q", got, got, boom)
				}
				return
			}
			if got != boom {
				t.Fatalf("recovered %v (%T), want %q", got, got, boom)
			}
		})
	}
}

// TestTableCacheForgetsPanickedBuild panics the first table build of a
// shared TableCache: that Analyze re-raises it, and the next Analyze with
// the same cache builds the table again and reconciles instead of
// meeting the old panic (a long-lived owner such as castand keeps one
// cache for its life).
func TestTableCacheForgetsPanickedBuild(t *testing.T) {
	var builds atomic.Int32
	tableBuildFault = func(int) {
		if builds.Add(1) == 1 {
			panic("injected table build panic")
		}
	}
	t.Cleanup(func() { tableBuildFault = nil })
	tables := new(TableCache)
	got := func() (v any) {
		defer func() { v = recover() }()
		analyzeLBChain(t, Config{NPackets: 6, MaxStates: 4000, Tables: tables})
		return nil
	}()
	if _, ok := got.(*parallel.Panic); !ok {
		t.Fatalf("first run recovered %v (%T), want a *parallel.Panic", got, got)
	}
	out, err := analyzeLBChain(t, Config{NPackets: 6, MaxStates: 4000, Tables: tables})
	if err != nil {
		t.Fatal(err)
	}
	if n := builds.Load(); n != 2 {
		t.Fatalf("%d table builds, want 2: the second run must rebuild", n)
	}
	if out.Degraded() || out.HavocsReconciled == 0 {
		t.Fatalf("second run: degradations %v, %d havocs reconciled", out.Degradations, out.HavocsReconciled)
	}
}
