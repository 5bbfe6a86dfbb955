// Command telemetrycatalog generates docs/TELEMETRY.md: the catalog of
// every counter, gauge, histogram and phase the pipeline emits, with
// unit, owning package, stage attribution and perf-gate relevance.
//
// The catalog is generated, not hand-maintained: the tool runs a small
// set of instrumented analyses chosen to light up every instrument
// family — a discovery-heavy NF twice through one artifact store (store
// hits and misses), a rainbow-reconciling NF, and a budget-cut degraded
// run — and documents exactly the names that appeared. A name that
// stops being emitted falls out of the catalog on the next
// `make telemetry-catalog`; a new undocumented name shows up flagged so
// the description table in this file gets extended.
//
// Usage:
//
//	telemetrycatalog -out docs/TELEMETRY.md
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"castan/internal/budget"
	"castan/internal/castan"
	"castan/internal/memsim"
	"castan/internal/nf"
	"castan/internal/obs"
	"castan/internal/obs/tracediff"
	"castan/internal/store"
)

// meta documents one metric name. Names the sample runs emit but this
// table misses are still cataloged, marked "(undocumented)".
type meta struct{ unit, desc string }

var counterMeta = map[string]meta{
	"cachecost.fixpoint_iterations": {"iterations", "abstract cache-state fixpoint passes until the per-block may/must sets converge"},
	"castan.contention_sets":        {"sets", "cache contention sets the discovery stage (or a store hit) produced"},
	"castan.degraded.symbex":        {"cuts", "symbex stage cut short by a budget/deadline (one per degradation; the castan.degraded.<stage> family covers every stage)"},
	"castan.havocs":                 {"sites", "havoced hash sites the symbolic path depends on"},
	"castan.havocs_reconciled":      {"sites", "havoc sites the rainbow stage concretized back to real packet bytes"},
	"castan.reconcile_checks":       {"replays", "reconciliation validation replays of candidate concretizations"},
	"castan.store.hits":             {"artifacts", "cross-run store lookups that returned a reusable artifact (skipping discovery/table builds)"},
	"castan.store.misses":           {"artifacts", "store lookups that found nothing and fell through to a fresh computation"},
	"castan.store.writes":           {"artifacts", "freshly computed artifacts persisted for future runs"},
	"memsim.accesses":               {"accesses", "memory-hierarchy accesses simulated (loads, stores and probe reads)"},
	"memsim.dram_misses":            {"accesses", "accesses that missed every cache level and paid the DRAM latency"},
	"memsim.l1_hits":                {"accesses", "accesses served by the L1 model"},
	"memsim.l2_hits":                {"accesses", "accesses served by the L2 model"},
	"memsim.l3_hits":                {"accesses", "accesses served by the L3 model"},
	"memsim.l3_evictions":           {"lines", "L3 lines evicted by simulated accesses"},
	"memsim.probe_calls":            {"probes", "timing-probe invocations during contention-set discovery"},
	"memsim.probe_line_reads":       {"lines", "cache lines touched by discovery probes — the discovery-effort gate column"},
	"obs.sub.dropped":               {"events", "progress events a bounded subscriber (obs.ChanSub) discarded because its buffer was full — a slow-consumer signal, deliberately not a gate column"},
	"rainbow.bruteforce_calls":      {"calls", "hash inversions whose table candidates were all rejected (or already taken) and that fell back to bounded brute force"},
	"rainbow.chains":                {"chains", "rainbow-table chains built for hash inversion"},
	"rainbow.invert_attempts":       {"lookups", "rainbow-table inversion lookups attempted"},
	"rainbow.invert_keys":           {"keys", "hash preimages recovered by table lookup, plus brute-force preimages for the inversions where that fallback ran"},
	"rainbow.tables":                {"tables", "rainbow tables built (or loaded from the store) this run"},
	"solver.backtracks":             {"backtracks", "constraint-solver search backtracks"},
	"solver.hint_hits":              {"queries", "solver queries answered from the warm-start hint cache"},
	"solver.memo_hits":              {"queries", "queries discharged without search by the memo (cached Unsat or range-probed model)"},
	"solver.memo_misses":            {"queries", "memo-eligible queries that fell through to a full search"},
	"solver.propagation_rounds":     {"rounds", "constraint-propagation rounds across all queries"},
	"solver.queries":                {"queries", "satisfiability queries issued by symbolic execution"},
	"solver.queries_avoided":        {"queries", "queries skipped by the constraint-subsumption fold"},
	"solver.queries_sat":            {"queries", "queries that came back satisfiable"},
	"symbex.done_states":            {"states", "symbolic states that ran to path completion"},
	"symbex.folded_instructions":    {"instructions", "instructions skipped by straight-line folding"},
	"symbex.forks":                  {"states", "state forks at symbolic branches"},
	"symbex.instructions":           {"instructions", "IR instructions symbolically executed"},
	"symbex.pruned_edges":           {"edges", "conditional-branch edges skipped as infeasible by value-range analysis"},
	"symbex.state_pops":             {"states", "states popped off the priority queue (the searcher's step count)"},
	"symbex.states_explored":        {"states", "distinct states explored before the budget or queue ran out"},
	"symbex.trapped_states":         {"states", "states terminated by an IR trap"},
}

var gaugeMeta = map[string]meta{
	"symbex.queue_depth": {"states", "current/peak size of the symbex priority queue"},
}

var histMeta = map[string]meta{
	"solver.query_ns":         {"ns", "per-query solver latency (wall clock; indicative, never gated)"},
	"solver.steps_per_query":  {"steps", "solver search steps per query"},
	"symbex.path_constraints": {"constraints", "path-condition size at state completion"},
	"symbex.static_potential": {"cycles", "static worst-case cost potential of popped states (the search-priority signal)"},
}

var phaseMeta = map[string]meta{
	"castan.analyze":    {"ns", "whole-pipeline root span"},
	"castan.static":     {"ns", "IR static analysis and lint pass"},
	"castan.discover":   {"ns", "cache contention-set discovery (probe campaign)"},
	"castan.cachecost":  {"ns", "abstract cache-cost fixpoint over the ICFG"},
	"castan.icfg":       {"ns", "interprocedural CFG construction"},
	"castan.symbex":     {"ns", "symbolic exploration for the worst path"},
	"castan.reconcile":  {"ns", "havoc reconciliation via rainbow tables"},
	"castan.crosscheck": {"ns", "interpreter replay cross-check of the emitted workload"},
}

// sample runs every instrument family: two store-backed discovery-heavy
// runs (cold then warm), a rainbow-reconciling NF, and a budget-cut
// degraded run, all under the fake clock so regeneration is stable.
func sample(storeDir string) (*obs.Metrics, error) {
	rec := obs.New(obs.NewFakeClock(1000))
	// A deliberately tiny, never-drained subscriber so the sample also
	// exercises the slow-consumer drop path (obs.sub.dropped).
	sub := obs.NewChanSub(1)
	sub.CountDrops(rec.Counter(obs.SubDroppedCounter))
	rec.Subscribe(sub)
	st, err := store.Open(storeDir)
	if err != nil {
		return nil, err
	}
	run := func(name string, st *store.Store, degrade bool) error {
		inst, err := nf.New(name)
		if err != nil {
			return err
		}
		cfg := castan.Config{NPackets: 8, MaxStates: 3000, Seed: 2018, Obs: rec, Store: st}
		if degrade {
			m := budget.New(0)
			m.SetStageLimit(budget.StageSymbex, 8)
			cfg.Budget = m
		}
		_, err = castan.Analyze(inst, memsim.New(memsim.DefaultGeometry(), 2018), cfg)
		return err
	}
	for _, r := range []struct {
		nf      string
		st      *store.Store
		degrade bool
	}{
		{"lpm-dl1", st, false},
		{"lpm-dl1", st, false},
		{"lb-chain", nil, false},
		{"lb-chain", nil, true},
	} {
		if err := run(r.nf, r.st, r.degrade); err != nil {
			return nil, fmt.Errorf("%s: %w", r.nf, err)
		}
	}
	return rec.Snapshot(), nil
}

func owner(name string) string {
	pkg := name
	if i := strings.IndexByte(name, '.'); i >= 0 {
		pkg = name[:i]
	}
	switch pkg {
	case "castan":
		return "internal/castan"
	case "memsim":
		return "internal/memsim"
	case "cachecost":
		return "internal/cachecost"
	case "cachemodel":
		return "internal/cachemodel"
	case "symbex":
		return "internal/symbex"
	case "solver":
		return "internal/solver"
	case "rainbow":
		return "internal/rainbow"
	default:
		return "internal/" + pkg
	}
}

func describe(table map[string]meta, name string) meta {
	if m, ok := table[name]; ok {
		return m
	}
	return meta{"—", "(undocumented — extend cmd/telemetrycatalog's description table)"}
}

func render(w *strings.Builder, m *obs.Metrics) {
	fmt.Fprintf(w, "# Telemetry catalog\n\n")
	fmt.Fprintf(w, "Generated by `make telemetry-catalog` (cmd/telemetrycatalog) from\n")
	fmt.Fprintf(w, "instrumented sample analyses — do not edit by hand. Regenerate after\n")
	fmt.Fprintf(w, "adding or renaming an instrument.\n\n")
	fmt.Fprintf(w, "Counters marked **gated** are the perf gate's columns\n")
	fmt.Fprintf(w, "(`obs.GateCounters`, diffed by `cmd/benchmetrics -compare` and\n")
	fmt.Fprintf(w, "attributed on failure by `cmd/tracediff`): deterministic work-item\n")
	fmt.Fprintf(w, "counts, bit-identical across machines and worker counts for a fixed\n")
	fmt.Fprintf(w, "(nf, packets, states, seed). Phase durations and the `*_ns` histogram\n")
	fmt.Fprintf(w, "come from the wall clock and are never gated.\n\n")

	fmt.Fprintf(w, "## Counters\n\n")
	fmt.Fprintf(w, "| Counter | Unit | Owner | Stage | Gated | What it counts |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|\n")
	names := make([]string, 0, len(m.Counters))
	for n := range m.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		d := describe(counterMeta, n)
		gate := ""
		if obs.GateCounter(n) {
			gate = "**gated**"
		}
		fmt.Fprintf(w, "| `%s` | %s | %s | %s | %s | %s |\n", n, d.unit, owner(n), tracediff.StageOf(n), gate, d.desc)
	}
	fmt.Fprintf(w, "\nThe `castan.degraded.<stage>` family (one counter per pipeline stage)\n")
	fmt.Fprintf(w, "appears only on runs where a budget or deadline cut that stage short;\n")
	fmt.Fprintf(w, "the sample degraded run lights up the symbex member.\n\n")

	fmt.Fprintf(w, "## Gauges\n\n")
	fmt.Fprintf(w, "| Gauge | Unit | Owner | What it tracks |\n|---|---|---|---|\n")
	names = names[:0]
	for n := range m.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		d := describe(gaugeMeta, n)
		fmt.Fprintf(w, "| `%s` | %s | %s | %s |\n", n, d.unit, owner(n), d.desc)
	}

	fmt.Fprintf(w, "\n## Histograms\n\n")
	fmt.Fprintf(w, "| Histogram | Unit | Owner | What it observes |\n|---|---|---|---|\n")
	names = names[:0]
	for n := range m.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		d := describe(histMeta, n)
		fmt.Fprintf(w, "| `%s` | %s | %s | %s |\n", n, d.unit, owner(n), d.desc)
	}

	fmt.Fprintf(w, "\n## Phases (span names)\n\n")
	fmt.Fprintf(w, "Pipeline-order spans; durations are wall-clock (fake-clock ticks under\n")
	fmt.Fprintf(w, "test) and feed `cmd/tracediff`'s attribution and critical-path output.\n\n")
	fmt.Fprintf(w, "| Phase | What it covers |\n|---|---|\n")
	for _, p := range m.Phases {
		d := describe(phaseMeta, p.Name)
		fmt.Fprintf(w, "| `%s` | %s |\n", p.Name, d.desc)
	}

	fmt.Fprintf(w, "\n## Progress events\n\n")
	fmt.Fprintf(w, "The live event bus (`castan -progress`, `-events`) publishes four\n")
	fmt.Fprintf(w, "`ProgressEvent` kinds — `stage_begin`, `stage_end` (with the gate\n")
	fmt.Fprintf(w, "counters' deltas for that stage), `progress` (batch done/total) and\n")
	fmt.Fprintf(w, "`note` (degradations) — sequence-numbered at single-goroutine\n")
	fmt.Fprintf(w, "orchestration points so the stream is byte-identical at any worker\n")
	fmt.Fprintf(w, "count. See DESIGN.md decision 13.\n")
}

func main() {
	out := flag.String("out", "docs/TELEMETRY.md", "output path (- for stdout)")
	flag.Parse()
	dir, err := os.MkdirTemp("", "telemetrycatalog-store-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)
	m, err := sample(dir)
	if err != nil {
		fatal(err)
	}
	var b strings.Builder
	render(&b, m)
	if *out == "-" {
		fmt.Print(b.String())
		return
	}
	if err := os.WriteFile(*out, []byte(b.String()), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%d counters, %d gauges, %d histograms, %d phases)\n",
		*out, len(m.Counters), len(m.Gauges), len(m.Histograms), len(m.Phases))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "telemetrycatalog:", err)
	os.Exit(1)
}
