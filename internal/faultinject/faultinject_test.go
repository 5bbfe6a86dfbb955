package faultinject

import "testing"

func TestNilAndZeroPlansArmNothing(t *testing.T) {
	var nilPlan *Plan
	var zero Plan
	for _, p := range []*Plan{nilPlan, &zero} {
		if p.Enabled() {
			t.Fatal("plan arms faults")
		}
		if p.SolverHook() != nil {
			t.Fatal("solver hook armed")
		}
		if p.ProbeHook() != nil {
			t.Fatal("probe hook armed")
		}
		if p.ChainHook() != nil {
			t.Fatal("chain hook armed")
		}
	}
}

func TestSolverHookCountsCalls(t *testing.T) {
	p := &Plan{SolverUnknownAfter: 3}
	hook := p.SolverHook()
	if hook() || hook() {
		t.Fatal("hook fired before threshold")
	}
	for i := 0; i < 5; i++ {
		if !hook() {
			t.Fatal("hook stopped firing after threshold")
		}
	}
	// Independent closures count independently (no global state).
	if p.SolverHook()() {
		t.Fatal("fresh hook shares call count")
	}
}

func TestProbeHookDeterministicAndPerturbing(t *testing.T) {
	p := &Plan{Seed: 42, ProbePerturb: true}
	hook := p.ProbeHook()
	addrs := []uint64{0x1000, 0x2000, 0x3000}
	a := hook(addrs, 10000)
	b := hook(addrs, 10000)
	if a != b {
		t.Fatalf("same inputs, different outputs: %d vs %d", a, b)
	}
	// Different working sets should (for this seed) see different jitter.
	c := hook([]uint64{0x4000, 0x5000}, 10000)
	if a == c {
		t.Fatalf("jitter did not depend on addresses")
	}
	// A different seed changes the jitter for the same working set.
	other := (&Plan{Seed: 43, ProbePerturb: true}).ProbeHook()
	if other(addrs, 10000) == a {
		t.Fatal("jitter did not depend on seed")
	}
}

func TestChainHookCorruptsSelectedChains(t *testing.T) {
	p := &Plan{Seed: 7, CorruptChainEvery: 2}
	hook := p.ChainHook()
	if got := hook(1, 555); got != 555 {
		t.Fatalf("odd chain corrupted: %d", got)
	}
	c0 := hook(0, 555)
	if c0 == 555 {
		t.Fatal("even chain not corrupted")
	}
	if again := hook(0, 555); again != c0 {
		t.Fatal("corruption not deterministic")
	}
}

func TestMatrixPlansCoverEveryFaultClass(t *testing.T) {
	plans := MatrixPlans()
	if len(plans) != 3 {
		t.Fatalf("want 3 matrix plans, got %d", len(plans))
	}
	seen := map[string]bool{}
	for _, p := range plans {
		if !p.Enabled() {
			t.Fatalf("plan %s arms nothing", p.Name)
		}
		if p.Name == "" || seen[p.Name] {
			t.Fatalf("plan names must be unique and non-empty: %q", p.Name)
		}
		seen[p.Name] = true
	}
}
