package obs

// InstrumentKind says which Recorder method creates an instrument.
type InstrumentKind string

const (
	CounterKind   InstrumentKind = "counter"
	GaugeKind     InstrumentKind = "gauge"
	HistogramKind InstrumentKind = "histogram"
	PhaseKind     InstrumentKind = "phase"
)

// Instrument is one row of the telemetry catalog: everything that is
// true of an instrument by declaration rather than by measurement. The
// name is the string the emitting call site passes to the Recorder; the
// rest exists nowhere else. docs/TELEMETRY.md is these rows rendered, and
// the perf gate's column list is the Gated ones.
//
// The pipeline stage a counter is attributed to is deliberately not a
// field: tracediff.StageOf derives it from the name's prefix, so a name
// the catalog has never seen still lands on a stage.
type Instrument struct {
	Name string
	Kind InstrumentKind
	// Unit is what one increment (or one observed value) is.
	Unit string
	// Owner is the directory of the package whose code records it.
	Owner string
	// Gated marks a perf-gate column (see GateCounters).
	Gated bool
	// Desc is the one-line meaning.
	Desc string
}

// Catalog lists every instrument the analysis pipeline records into a
// run's Recorder: counters, gauges and histograms by name within kind,
// phases in pipeline order. The daemon's own instruments are
// service.Instruments. internal/castan's TestCatalogMatchesEmission fails
// on a name a run emits without a row and on a row no run lights up.
var Catalog = []Instrument{
	{"castan.contention_sets", CounterKind, "sets", "internal/castan", false, "cache contention sets the discovery stage (or a store hit) produced"},
	{"castan.degraded.discover", CounterKind, "cuts", "internal/castan", false, "discovery cut short by its budget, or every candidate set failed the cross-reboot filter; a partial or no cache model is used"},
	{"castan.degraded.rainbow", CounterKind, "cuts", "internal/castan", false, "a rainbow table failed its self-check and was dropped (one per table); its havoc sites stay unreconciled"},
	{"castan.degraded.reconcile", CounterKind, "cuts", "internal/castan", false, "reconciliation cut by the rainbow budget or a candidate-check worker panic; remaining havoc sites stay unreconciled"},
	{"castan.degraded.solve", CounterKind, "cuts", "internal/castan", false, "the final solve of the chosen path hit its budget (or an injected Unknown); the state's cached model stands in and reconciliation is skipped"},
	{"castan.degraded.symbex", CounterKind, "cuts", "internal/castan", false, "symbex stage cut short by a budget/deadline (one per degradation; the castan.degraded.<stage> family covers every stage)"},
	{"castan.havocs", CounterKind, "sites", "internal/castan", false, "havoced hash sites the symbolic path depends on"},
	{"castan.havocs_reconciled", CounterKind, "sites", "internal/castan", true, "havoc sites the rainbow stage concretized back to real packet bytes"},
	{"castan.reconcile_checks", CounterKind, "replays", "internal/castan", false, "reconciliation validation replays of candidate concretizations"},
	{"castan.store.hits", CounterKind, "artifacts", "internal/castan", true, "cross-run store lookups that returned a reusable artifact (skipping discovery/table builds)"},
	{"castan.store.misses", CounterKind, "artifacts", "internal/castan", false, "store lookups that found nothing and fell through to a fresh computation"},
	{"castan.store.writes", CounterKind, "artifacts", "internal/castan", false, "freshly computed artifacts persisted for future runs"},
	{"memsim.dram_misses", CounterKind, "accesses", "internal/memsim", true, "accesses that missed every cache level and paid the DRAM latency"},
	{"memsim.l1_hits", CounterKind, "accesses", "internal/memsim", false, "accesses served by the L1 model"},
	{"memsim.l2_hits", CounterKind, "accesses", "internal/memsim", false, "accesses served by the L2 model"},
	{"memsim.l3_evictions", CounterKind, "lines", "internal/memsim", false, "L3 lines evicted by simulated accesses"},
	{"memsim.l3_hits", CounterKind, "accesses", "internal/memsim", false, "accesses served by the L3 model"},
	{"memsim.probe_calls", CounterKind, "probes", "internal/memsim", false, "timing-probe invocations during contention-set discovery"},
	{"memsim.probe_line_reads", CounterKind, "lines", "internal/memsim", true, "cache lines touched by discovery probes — the discovery-effort gate column"},
	{SubDroppedCounter, CounterKind, "events", "internal/obs", false, "progress events a bounded subscriber (obs.ChanSub) discarded because its buffer was full — a slow-consumer signal, deliberately not a gate column"},
	{"rainbow.bruteforce_calls", CounterKind, "calls", "internal/castan", false, "hash inversions whose table candidates were all rejected (or already taken) and that fell back to bounded brute force"},
	{"rainbow.chains", CounterKind, "chains", "internal/castan", true, "rainbow-table chains built for hash inversion"},
	{"rainbow.invert_attempts", CounterKind, "lookups", "internal/castan", false, "rainbow-table inversion lookups attempted"},
	{"rainbow.invert_keys", CounterKind, "keys", "internal/castan", false, "hash preimages recovered by table lookup, plus brute-force preimages for the inversions where that fallback ran"},
	{"rainbow.tables", CounterKind, "tables", "internal/castan", false, "rainbow tables built (or loaded from the store) this run"},
	{"solver.backtracks", CounterKind, "backtracks", "internal/solver", true, "constraint-solver search backtracks"},
	{"solver.hint_hits", CounterKind, "values", "internal/solver", false, "hinted variable values (from the warm-start model) that survived propagation and were taken without search"},
	{"solver.propagation_rounds", CounterKind, "rounds", "internal/solver", false, "constraint-propagation rounds across all queries"},
	{"solver.queries", CounterKind, "queries", "internal/solver", true, "satisfiability queries issued by symbolic execution"},
	{"solver.queries_avoided", CounterKind, "queries", "internal/symbex", true, "candidate-line feasibility probes the pinned-havoc sweep skip did not pose"},
	{"solver.queries_sat", CounterKind, "queries", "internal/solver", false, "queries that came back satisfiable"},
	{"solver.queries_unknown", CounterKind, "queries", "internal/solver", false, "queries the step cap, the budget or an injected fault ended before a verdict"},
	{"solver.queries_unsat", CounterKind, "queries", "internal/solver", false, "queries proved unsatisfiable"},
	{"symbex.done_states", CounterKind, "states", "internal/symbex", false, "symbolic states that ran to path completion"},
	{"symbex.folded_instructions", CounterKind, "instructions", "internal/symbex", true, "address write-backs: symbolic base registers replaced by the address their access pinned (an engine given a taint analysis also counts input-independent results that came out constant)"},
	{"symbex.forks", CounterKind, "states", "internal/symbex", true, "state forks at symbolic branches"},
	{"symbex.instructions", CounterKind, "instructions", "internal/symbex", true, "IR instructions symbolically executed"},
	{"symbex.pruned_edges", CounterKind, "edges", "internal/symbex", true, "conditional-branch edges skipped as infeasible by value-range analysis"},
	{"symbex.state_pops", CounterKind, "states", "internal/symbex", false, "states popped off the priority queue (the searcher's step count)"},
	{"symbex.states_explored", CounterKind, "states", "internal/symbex", true, "distinct states explored before the budget or queue ran out"},
	{"symbex.trapped_states", CounterKind, "states", "internal/symbex", false, "states terminated by an IR trap"},

	{"symbex.queue_depth", GaugeKind, "states", "internal/symbex", false, "current/peak size of the symbex priority queue"},

	{"solver.query_ns", HistogramKind, "ns", "internal/solver", false, "per-query solver latency (wall clock; indicative, never gated)"},
	{"solver.steps_per_query", HistogramKind, "steps", "internal/solver", false, "solver search steps per query"},
	{"symbex.path_constraints", HistogramKind, "constraints", "internal/symbex", false, "path-condition size at state completion"},

	{"castan.analyze", PhaseKind, "ns", "internal/castan", false, "whole-pipeline root span"},
	{"castan.static", PhaseKind, "ns", "internal/castan", false, "IR static analysis and lint pass"},
	{"castan.discover", PhaseKind, "ns", "internal/castan", false, "cache contention-set discovery (probe campaign)"},
	{"castan.icfg", PhaseKind, "ns", "internal/castan", false, "interprocedural CFG construction"},
	{"castan.symbex", PhaseKind, "ns", "internal/castan", false, "symbolic exploration for the worst path"},
	{"castan.reconcile", PhaseKind, "ns", "internal/castan", false, "havoc reconciliation via rainbow tables"},
}

// GateCounters is the list of deterministic effort counters the CI perf
// gate diffs (castan bench -compare): the Gated rows of Catalog.
// Every one counts work items, never time, so the values are
// bit-identical for a fixed (nf, packets, states, seed) across machines,
// load and worker counts — the property that lets the gate run with zero
// flake budget.
//
// Marking a row Gated makes it gate regressions only after the next
// `make bench-metrics` baseline refresh: the gate compares over the
// intersection of baseline and fresh columns.
var GateCounters = gated(Catalog)

func gated(rows []Instrument) []string {
	var names []string
	for _, in := range rows {
		if in.Gated {
			names = append(names, in.Name)
		}
	}
	return names
}
