// Package faultinject is the seeded fault-injection harness that proves
// the pipeline's degradation paths work. A Plan describes which faults to
// arm; the pipeline wires the resulting hooks into per-run config structs
// (solver.ForceUnknown, memsim probe perturbation, rainbow chain
// corruption). There is no global state: every
// hook is a closure over the plan, so two concurrent runs with different
// plans cannot interfere, and a run with a nil plan pays nothing.
//
// Faults are deterministic functions of the plan's seed and the call
// sequence (or, for value-perturbing hooks, of the inputs themselves), so
// a faulty run is as reproducible as a healthy one — the matrix test
// relies on this to assert byte-stable degraded reports.
package faultinject

import "castan/internal/stats"

// Plan selects which faults to arm for one run. The zero value arms
// nothing. Plans are immutable once handed to the pipeline.
type Plan struct {
	// Name labels the plan in test output and reports.
	Name string
	// Seed drives any randomized perturbation deterministically.
	Seed uint64
	// SolverUnknownAfter > 0 forces every solver Check after the first
	// n calls to return Unknown (simulating a solver that stops making
	// progress mid-run). 1 means "fail from the start".
	SolverUnknownAfter int
	// ProbePerturb injects deterministic jitter into memsim probe
	// timings, corrupting the signal cache model discovery measures.
	ProbePerturb bool
	// CorruptChainEvery > 0 corrupts every n-th rainbow chain end,
	// simulating a torn or bit-flipped table.
	CorruptChainEvery int
}

// Enabled reports whether the plan arms any fault at all.
func (p *Plan) Enabled() bool {
	if p == nil {
		return false
	}
	return p.SolverUnknownAfter > 0 || p.ProbePerturb || p.CorruptChainEvery > 0
}

// SolverHook returns the solver.ForceUnknown hook for this plan, or nil
// if the fault is not armed. The returned closure counts calls, so it
// must only be invoked from a single goroutine (the pipeline thread's
// solvers) — the same constraint solver telemetry already obeys.
func (p *Plan) SolverHook() func() bool {
	if p == nil || p.SolverUnknownAfter <= 0 {
		return nil
	}
	calls := 0
	after := p.SolverUnknownAfter
	return func() bool {
		calls++
		return calls >= after
	}
}

// ProbeHook returns the memsim probe-perturbation hook, or nil. The
// jitter is a pure function of the probed addresses and the plan seed, so
// repeated probes of the same working set see the same (wrong) timing —
// exactly the failure mode of a machine with an undetected noisy
// neighbor.
func (p *Plan) ProbeHook() func(addrs []uint64, t uint64) uint64 {
	if p == nil || !p.ProbePerturb {
		return nil
	}
	seed := p.Seed
	return func(addrs []uint64, t uint64) uint64 {
		h := seed ^ 0x9e3779b97f4a7c15
		for _, a := range addrs {
			h ^= a
			h *= 0x100000001b3
		}
		// Jitter of up to ±127 ticks, large enough to cross the
		// L3-vs-DRAM classification threshold discovery relies on.
		jitter := h % 255
		return t + jitter - 127
	}
}

// ChainHook returns the rainbow chain-corruption hook, or nil. Every
// CorruptChainEvery-th chain gets its stored end XOR-perturbed with a
// seed-derived value, so lookups walk into chains that do not replay.
func (p *Plan) ChainHook() func(chain int, end uint64) uint64 {
	if p == nil || p.CorruptChainEvery <= 0 {
		return nil
	}
	every := p.CorruptChainEvery
	seed := p.Seed
	return func(chain int, end uint64) uint64 {
		if chain%every != 0 {
			return end
		}
		return end ^ stats.NewRNG(seed^uint64(chain)).Uint64()
	}
}

// MatrixPlans returns the named fault plans the robustness matrix test
// runs every NF under: one per fault class, seeded deterministically.
func MatrixPlans() []*Plan {
	return []*Plan{
		{Name: "solver-unknown", Seed: 1, SolverUnknownAfter: 1},
		{Name: "probe-perturb", Seed: 2, ProbePerturb: true},
		{Name: "chain-corrupt", Seed: 3, CorruptChainEvery: 1},
	}
}
