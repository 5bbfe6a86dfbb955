package main

import "castan/internal/nf"

// metricSpec names one metric. Bound is the share of the parent's median
// by which an end-to-end metric may worsen before it counts as a
// regression; per-layer metrics carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them (the driver wants a full matrix), so each is defined
// over a workload's passes and operations rather than over one program:
// an operation is one analysis (a fresh child process), one
// testbed.Measure call, or one HTTP request; a pass is one sweep over the
// workload's inputs.
//
// The time bounds are the widest the driver allows because the reference
// box is a shared VM whose speed drifts by a tenth between runs a minute
// apart even with no steal time; README.md has the measured spreads.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "pass_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "adv_cycles_per_pkt", Unit: "cycles", Better: "higher", Bound: 0.05},
}

// The NFs the service mix draws from: ring NFs are left out so service
// overhead stays a visible share of a request.
var mixNFs = []string{"nop", "lpm-trie", "lpm-dl2", "lpm-dl1", "lb-chain", "nat-chain", "lb-rbtree"}

// perLayer lists the single-layer metrics of the traced run, grouped by
// the module they measure. A value of 0 on a workload means the layer
// was idle there — which is what a bypassing workload should show.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	var out []metricSpec
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricSpec{Name: n, Unit: unit, Better: better})
		}
	}
	// castan: stage phases and counters from Output.Telemetry of the
	// traced pass, summed over the pass's analyses.
	add("ms", "lower", "castan.analyze_ms", "castan.static_ms", "castan.discover_ms", "castan.cachecost_ms",
		"castan.icfg_ms", "castan.symbex_ms", "castan.reconcile_ms", "castan.crosscheck_ms")
	add("count", "higher", "castan.havocs_reconciled", "castan.store.hits")
	add("count", "lower", "castan.budget_ticks")
	for _, n := range nf.Names {
		if n != "nop" {
			add("s", "lower", "castan.nf."+n+".analyze_s")
		}
	}
	add("count", "lower", "rainbow.chains")
	add("ns", "lower", "rainbow.build_ns_per_link")
	add("us", "lower", "rainbow.invert_us")
	add("ratio", "higher", "rainbow.invert_hit_ratio")
	add("ms", "lower", "rainbow.serialize_ms", "rainbow.load_ms", "rainbow.selfcheck_ms")
	add("ns", "lower", "nfhash.ring_ns", "nfhash.table_ns")
	add("us", "lower", "solver.check_us_tree", "solver.check_us_ring")
	add("count", "lower", "solver.queries", "solver.backtracks", "solver.memo_misses")
	add("count", "higher", "solver.memo_hits")
	add("ms", "lower", "symbex.run_ms_tree")
	add("1/s", "higher", "symbex.pops_per_s")
	add("count", "lower", "symbex.states_explored", "symbex.instructions", "symbex.forks")
	add("count", "higher", "symbex.folded_instructions", "symbex.pruned_edges")
	add("ns", "lower", "expr.new_ns")
	add("count", "lower", "expr.new_allocs")
	add("ns", "lower", "memsim.access_hit_ns", "memsim.access_miss_ns", "memsim.probe_ns_per_line")
	add("count", "lower", "memsim.probe_line_reads", "memsim.dram_misses")
	add("ms", "lower", "cachemodel.discover_ms_dl1", "cachemodel.discover_ms_ring", "cachemodel.load_ms")
	add("ms", "lower", "store.put_ms_table", "store.get_ms_table")
	add("us", "lower", "store.get_us_small", "store.do_hit_us")
	add("ns", "lower", "interp.ns_per_instr")
	add("kpps", "higher", "testbed.kpps_lpm", "testbed.kpps_tree", "testbed.kpps_hash", "testbed.replay_kpps")
	add("digest", "higher", "testbed.sim_digest")
	add("ms", "lower", "nf.new_ms_max")
	add("us", "lower", "service.do_nop_us", "service.http_nop_us", "service.cache_hit_us")
	for _, n := range mixNFs {
		add("ms", "lower", "service.p50_ms."+n)
	}
	add("1/s", "higher", "service.throughput_rps")
	add("count", "higher", "service.accepted", "service.report_cache_hits", "service.singleflight_hits")
	add("count", "lower", "service.completed_degraded", "service.rejected.queue_full")
	add("ns", "lower", "obs.counter_add_ns", "obs.span_ns")
	add("ratio", "lower", "trace.overhead_share")
	add("ratio", "higher", "parallel.speedup_w2")
	add("ms", "lower", "bench.child_overhead_ms")
	add("MB", "lower", "proc.peak_rss_mb")
	// The tail of the operation latencies behind latency_p50_ms. It is
	// here and not end to end because between runs of the same code it
	// spreads past any bound worth stating.
	add("ms", "lower", "latency_p95_ms")
	return out
}

// workloadSpec is one set of inputs the benchmark runs.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// setupReps is how often set-up is repeated for the setup_s median.
	setupReps int
	// setup builds one fresh instance of the workload from the seed.
	setup func(h *harness, seed uint64) (instance, error)
}

var workloads = []workloadSpec{
	{
		Name:      "cold-hash",
		Why:       "ring and chain NFs, no store: rainbow.Build and havoc reconciliation are nearly all of the time",
		setupReps: 5,
		setup: analysisSetup(analysisInputs{
			jobs:   jobsFor("nat-ring", "lb-ring", "nat-chain", "lb-chain"),
			warmup: jobsFor("nat-chain", "lb-chain"),
		}),
	},
	{
		Name:      "cold-tree",
		Why:       "tree NFs and the trie, no store: symbex and solver backtracking dominate, rainbow and probing idle",
		setupReps: 5,
		setup: analysisSetup(analysisInputs{
			jobs:   jobsFor("lb-ubtree", "nat-ubtree", "lb-rbtree", "nat-rbtree", "lpm-trie"),
			warmup: jobsFor("lb-rbtree", "lpm-trie"),
		}),
	},
	{
		Name:      "cold-probe",
		Why:       "lpm-dl1 on three DUTs plus lpm-dl2, no store: cachemodel.Discover over memsim.ProbeBatch dominates",
		setupReps: 5,
		setup: analysisSetup(analysisInputs{
			jobs: []analysisJob{
				{NF: "lpm-dl1", SeedOff: 0, Pooled: true}, {NF: "lpm-dl1", SeedOff: 1, Pooled: true},
				{NF: "lpm-dl1", SeedOff: 2, Pooled: true}, {NF: "lpm-dl2"},
			},
			warmup: []analysisJob{{NF: "lpm-dl1", SeedOff: 0, Pooled: true}, {NF: "lpm-dl2"}},
		}),
	},
	{
		Name: "warm-hash",
		Why:  "cold-hash NFs plus lpm-dl1 against a filled store: the same layers used for loading and lookup, not building",
		// Filling the store is one full cold pass, so it runs once.
		setupReps: 1,
		setup: analysisSetup(analysisInputs{
			jobs:      jobsFor("nat-ring", "lb-ring", "nat-chain", "lb-chain", "lpm-dl1"),
			fillStore: true,
		}),
	},
	{
		Name: "replay",
		Why:  "testbed.Measure of all 12 NFs on random and Zipfian traffic: interp and memsim.Access, analysis layers idle",
		// A set-up is 25 ms of file writing, so it takes more of them to
		// steady the median.
		setupReps: 9,
		setup:     replaySetup,
	},
	{
		Name:      "service-mix",
		Why:       "real castand, closed loop of 2 clients over a seeded 7-NF mix: admission, JSON, report cache, shared stores",
		setupReps: 3,
		setup:     serviceSetup,
	},
}
