// Package castan is the top of the stack: CASTAN, the Cycle Approximating
// Symbolic Timing Analysis for Network Functions. Given a built NF
// instance and a (black-box) memory hierarchy, it
//
//  1. reverse-engineers contention sets over the NF's tables by timed
//     probing (§3.2, via internal/cachemodel),
//  2. explores the NF with directed symbolic execution, steering symbolic
//     pointers into contended cache sets and havocing hash functions
//     (§3.1/§3.3/§3.4, via internal/symbex),
//  3. picks the highest-cost completed state, reconciles havoced hashes
//     with rainbow tables (§3.5, via internal/rainbow), and
//  4. solves the path constraint into N concrete packets plus per-packet
//     predicted performance metrics.
package castan

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"castan/internal/analysis"
	"castan/internal/budget"
	"castan/internal/cachemodel"
	"castan/internal/expr"
	"castan/internal/faultinject"
	"castan/internal/icfg"
	"castan/internal/ir"
	"castan/internal/memsim"
	"castan/internal/nf"
	"castan/internal/nfhash"
	"castan/internal/obs"
	"castan/internal/packet"
	"castan/internal/parallel"
	"castan/internal/rainbow"
	"castan/internal/solver"
	"castan/internal/stats"
	"castan/internal/store"
	"castan/internal/symbex"
)

// Config tunes an analysis run.
type Config struct {
	// NPackets is the adversarial workload length (paper: 30-50).
	NPackets int
	// MaxStates is the exploration budget (the paper's time budget;
	// default DefaultMaxStates).
	MaxStates int
	// Seed drives discovery sampling.
	Seed uint64
	// NoCacheModel disables the cache model (ablation).
	NoCacheModel bool
	// NoRainbow disables havoc reconciliation (ablation).
	NoRainbow bool
	// Workers bounds each stage's fan-out (0 = GOMAXPROCS): rainbow-chain
	// generation and discovery's probe batches. Havoc reconciliation
	// checks its candidates in order on the pipeline goroutine. The
	// rainbow-table work itself runs beside discovery and symbex, on a
	// goroutine Analyze starts and joins (DESIGN.md decision 21), so the
	// two stages' fan-outs can overlap. Output is identical at every
	// worker count.
	Workers int
	// Obs, when non-nil, receives pipeline telemetry: phase spans, solver
	// and symbex effort, memory-simulator traffic, and rainbow/havoc
	// reconciliation counts. With a fake clock the recorded output is
	// byte-identical at every worker count (DESIGN.md decision 8), and
	// the snapshot lands in Output.Telemetry.
	Obs *obs.Recorder
	// Store, when non-nil, is the cross-run artifact store: the discovered
	// cache model and the rainbow tables are looked up by a canonical
	// content key before being derived, and persisted after a clean
	// derivation. A warm store lets Analyze skip discovery probing
	// entirely, with byte-identical output (discovery always leaves the
	// hierarchy in the same rebooted state it would start from). Stale or
	// corrupt entries read as misses and are re-derived and overwritten;
	// degraded or partial artifacts are never persisted; fault-injection
	// runs bypass the store entirely so a corrupted artifact can never
	// reach it. Lookup outcomes land on the castan.store.{hits,misses,
	// writes} counters, bumped on the pipeline goroutine only, so they
	// are invariant under Workers.
	Store *store.Store
	// Tables, when non-nil, is the caller's in-process memo of built or
	// loaded rainbow tables: Analyze calls handed the same TableCache build
	// (or load from Store) each table once between them, and only the call
	// that did so records the table's castan.store.* outcome. Nil means
	// nothing outlives this call — it builds or loads its own tables, so
	// its effort and telemetry do not depend on what the process analyzed
	// before. Runs with chain corruption injected never read or fill it.
	Tables *TableCache
	// Budget, when non-nil, bounds the run in deterministic ticks
	// (symbex state pops, solver steps, probe line reads, rainbow chain
	// links) with an optional wall-clock deadline. On exhaustion the
	// pipeline degrades per stage instead of failing: the cut lands on
	// the same tick at every worker count, so the degraded Output is as
	// reproducible as a full one. Output.Degradations records what was
	// cut and what the fallback was.
	Budget *budget.Meter
	// Faults arms seeded fault injection (tests and chaos runs only; nil
	// in production). Each armed fault exercises one degradation path.
	Faults *faultinject.Plan
}

// DefaultMaxStates is the exploration budget a Config without one gets:
// enough for every catalog NF at its paper workload size except
// nat-ubtree's 50 packets.
const DefaultMaxStates = 12000

func (c *Config) fill() {
	if c.NPackets <= 0 {
		c.NPackets = 30
	}
	if c.MaxStates <= 0 {
		c.MaxStates = DefaultMaxStates
	}
	if c.Tables == nil {
		// Per-call memo: hash sites that need the same table (the NATs'
		// forward and reverse flow tables) still share one build.
		c.Tables = new(TableCache)
	}
}

// TableCache memoizes rainbow tables across the Analyze calls of one owner
// (Config.Tables): a single-flight group keyed by table content, so
// concurrent analyses, and the hash sites of one analysis, that need the
// same table build it exactly once instead of racing.
// The zero value is ready to use; entries are never evicted, so the owner
// bounds its lifetime.
type TableCache struct {
	tables parallel.Group[string, *rainbow.Table]
}

const (
	// discoverStride is the line-granularity sampling stride (in cache
	// lines) used to build discovery pools: it models the partial coverage
	// that survives the paper's cross-reboot consistency filtering.
	discoverStride = 8
	// discoverPoolCap bounds the discovery pool size per attack region.
	discoverPoolCap = 2600
	// discoverMaxSets bounds how many contention sets to discover.
	discoverMaxSets = 6
	// rainbowCoverage multiplies the default rainbow table size.
	rainbowCoverage = 8
	// maxLoopIters caps symbolic loop unrolling per state.
	maxLoopIters = 96
	// icfgLoopBound is the M of §3.4: potential-cost estimation assumes
	// every loop runs M-1 times. The paper uses M=2; our searcher keeps
	// loop-heavy paths hot by over-estimating more aggressively, which
	// plays the role of the paper's always-deepen loop policy.
	icfgLoopBound = 8
)

// StageDegradation records one stage the pipeline had to cut short —
// budget exhaustion, an injected or real fault — and the fallback that
// kept the run producing output. Degradations appear in pipeline order,
// so the list is deterministic.
type StageDegradation struct {
	// Stage is the pipeline stage that degraded: "discover", "symbex",
	// "solve", "rainbow", or "reconcile".
	Stage string `json:"stage"`
	// Reason says why (budget exhaustion reason, fault description).
	Reason string `json:"reason"`
	// Fallback says what the pipeline did instead.
	Fallback string `json:"fallback"`
}

// Output is a completed analysis: the paper's two files. Frames is the
// workload (exported as PCAP via internal/pcap); the embedded Report is
// the per-path metrics file, field for field what WriteReport serializes.
type Output struct {
	Report
	Frames [][]byte
}

// Degraded reports whether any stage was cut short.
func (o *Output) Degraded() bool { return len(o.Degradations) > 0 }

// Search is a catalog NF's directed symbolic search, assembled the way
// Analyze runs it and not yet run. The unexported fields are what the
// stages after symbex read.
type Search struct {
	// Engine is the ready engine. Callers may set its QueryTrace and
	// Trace hooks before calling Run.
	Engine *symbex.Engine

	cfg   Config
	model *cachemodel.Model
	// degr accumulates degradations in pipeline order; the matching
	// counters are bumped once, at the end, when the output is assembled.
	degr  []StageDegradation
	root  *obs.Span
	start time.Time
	// tables is the table work Analyze started before this search was
	// built; nil when it started none (NoRainbow, no hash site, or a
	// search built by NewSearch alone).
	tables *tableWork
}

// degrade records a stage cut and publishes it as a note.
func (s *Search) degrade(stage, reason, fallback string) {
	s.degr = append(s.degr, StageDegradation{Stage: stage, Reason: reason, Fallback: fallback})
	s.cfg.Obs.Note(stage, "degraded: "+reason+"; fallback: "+fallback)
}

// NewSearch runs every stage in front of symbolic execution on a
// *freshly built* NF instance — the static gate, cache-model
// discovery, the ICFG analysis — and builds the engine from their
// results. It is the one place the pipeline's engine is assembled:
// Analyze and the tests that watch the pipeline's solver queries all
// build through it. (bench/layers.go still carries its own copy until
// the benchmark itself adopts this function.)
func NewSearch(inst *nf.Instance, hier *memsim.Hierarchy, cfg Config) (*Search, error) {
	cfg.fill()
	s := &Search{cfg: cfg, start: time.Now()}
	rec := cfg.Obs
	if rec != nil {
		hier.SetObs(rec)
	}
	s.root = rec.Span("castan.analyze")

	// Stage 0: static gate. A module that fails the pass pipeline (broken
	// structure, use-before-def, definite out-of-extent access) would make
	// symbolic exploration explore garbage; reject it up front. The gate
	// is all this stage is: no later stage reads the report.
	spStatic := s.root.Stage("castan.static")
	rep := analysis.Lint(inst.Mod, analysis.Options{
		EntryHints: analysis.NFEntryHints(),
		NoDeadDefs: true,
	})
	if rep.HasErrors() {
		return nil, fmt.Errorf("castan: static analysis rejects %s: %s",
			inst.Mod.Name, rep.Findings[0].String())
	}
	spStatic.End()

	// Stage 1: empirical cache model over the NF's attack regions. An NF
	// that declares none gets no model (discoverModel's empty pool).
	spDiscover := s.root.Stage("castan.discover")
	// Probe ticks charge the "discover" stage through the hierarchy
	// itself (forks inherit the stage); the fault hook perturbs probe
	// timings. Both are cleared after discovery — later stages never
	// probe this hierarchy.
	hier.SetBudget(cfg.Budget.Stage(budget.StageDiscover))
	hier.SetProbeFault(cfg.Faults.ProbeHook())
	if !cfg.NoCacheModel {
		var derr error
		s.model, derr = discoverModel(inst.AttackRegions, hier, cfg, rec)
		switch {
		case derr == nil:
		case errors.Is(derr, cachemodel.ErrBudget) && s.model != nil:
			s.degrade("discover", derr.Error(), "partial unfiltered cache model")
		case errors.Is(derr, cachemodel.ErrBudget):
			s.degrade("discover", derr.Error(), "no cache model; cold-miss-once cost assumptions")
		case errors.Is(derr, cachemodel.ErrInconsistent):
			// Every set failing the cross-reboot filter points at
			// perturbed probe timings in the noise-free simulator.
			s.degrade("discover", derr.Error(), "no cache model; cold-miss-once cost assumptions")
		default:
			// ErrNoSets (and region pools too small to probe) is the
			// paper's benign LPM two-stage outcome, not a degradation.
		}
	}
	hier.SetBudget(nil)
	hier.SetProbeFault(nil)
	rec.Counter("castan.contention_sets").Add(uint64(modelSets(s.model)))
	spDiscover.End()

	// Stage 2, set up: one ICFG analysis serves both the realized costs
	// (its cost model and loop heads, which do not depend on M) and the
	// search heuristic, whose potentials assume loops run as often as
	// there are packets, so the best-first queue surfaces worst-case
	// paths first.
	spICFG := s.root.Stage("castan.icfg")
	an, err := icfg.Analyze(inst.Mod, max(icfgLoopBound, cfg.NPackets+2), icfg.DefaultCostModel())
	if err != nil {
		return nil, fmt.Errorf("castan: icfg: %w", err)
	}
	spICFG.End()
	s.Engine = &symbex.Engine{
		Mod:      inst.Mod,
		Analysis: an,
		Model:    s.model,
		Base:     inst.Machine.Mem,
		HeapTop:  ir.HeapBase + inst.Machine.HeapUsed(),
		Cfg: symbex.Config{
			Entry:        "nf_process",
			NPackets:     cfg.NPackets,
			PacketLen:    nf.SymbolicPacketLen,
			MaxStates:    cfg.MaxStates,
			MaxLoopIters: maxLoopIters,
		},
		Obs:    rec,
		Budget: cfg.Budget,
		// One counting solver-fault closure per run, shared by every
		// solver on the pipeline goroutine (the engine's and
		// concretize's); worker solvers stay unhooked, like Obs and
		// Budget.
		SolverFault: cfg.Faults.SolverHook(),
	}
	return s, nil
}

// Analyze runs the full CASTAN pipeline on a *freshly built* NF instance.
// The hierarchy is only ever probed as a black box. Every hash site's
// rainbow table is built (or loaded) beside discovery and symbex, and
// joined before Analyze returns, on every path.
func Analyze(inst *nf.Instance, hier *memsim.Hierarchy, cfg Config) (*Output, error) {
	cfg.fill()
	tables := startTables(inst, cfg)
	defer tables.join()
	s, err := NewSearch(inst, hier, cfg)
	if err != nil {
		return nil, err
	}
	s.tables = tables
	cfg, eng, root := s.cfg, s.Engine, s.root
	rec := cfg.Obs

	// Stage 2: directed symbolic execution.
	spSymbex := root.Stage("castan.symbex")
	res, err := eng.Run()
	spSymbex.End()
	if err != nil {
		return nil, fmt.Errorf("castan: symbex: %w", err)
	}

	// Stages 3+4: pick the one state to emit and concretize it. The
	// paper's contract is the worst completed path, or best-so-far output
	// when the search was cut (budget) or starved (injected solver fault)
	// before any state finished: then the most-progressed partial state,
	// or, with no surviving state at all, zero-model frames.
	spReconcile := root.Stage("castan.reconcile")
	st := res.Best
	switch {
	case st != nil:
		if res.BudgetExhausted != "" {
			s.degrade("symbex", res.BudgetExhausted, "best completed state from truncated search")
		}
	case res.BudgetExhausted == "" && !cfg.Faults.Enabled():
		return nil, fmt.Errorf("castan: no state consumed all %d packets within the exploration budget of %d states (Config.MaxStates, the commands' -states)",
			cfg.NPackets, cfg.MaxStates)
	default:
		reason := res.BudgetExhausted
		if reason == "" {
			reason = "no state consumed all packets under injected faults"
		}
		st = res.BestPartial
		if st != nil {
			s.degrade("symbex", reason,
				fmt.Sprintf("most-progressed partial state (%d/%d packets)", st.PacketsDone, cfg.NPackets))
		} else {
			s.degrade("symbex", reason, "no surviving states; zero-model frames")
		}
	}
	out, err := s.concretize(inst, st)
	if err != nil {
		return nil, fmt.Errorf("castan: %w", err)
	}
	out.ContentionSetsFound = modelSets(s.model)
	out.StatesExplored = res.StatesExplored
	out.Forks = res.Forks
	out.StepsToWorstPath = res.PopsToBest
	out.Degradations = s.degr
	out.BudgetTicksUsed = cfg.Budget.TotalUsed()
	for _, d := range s.degr {
		rec.Counter("castan.degraded." + d.Stage).Inc()
	}
	out.AnalysisSeconds = time.Since(s.start).Seconds()
	// End the spans before snapshotting so every phase is in the
	// snapshot; Telemetry is the last field assigned.
	spReconcile.End()
	root.End()
	out.Telemetry = rec.Snapshot()
	return out, nil
}

// sortedSites flattens a hash-ID set into a sorted slice (nil if empty).
func sortedSites(m map[int]bool) []int {
	if len(m) == 0 {
		return nil
	}
	out := make([]int, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// buildFrames extracts the workload's frames from a model.
func buildFrames(eng *symbex.Engine, mdl solver.Model) [][]byte {
	frames := make([][]byte, eng.Cfg.NPackets)
	for p := range frames {
		frames[p] = frameFromModel(eng, mdl, p)
	}
	return frames
}

func modelSets(m *cachemodel.Model) int {
	if m == nil {
		return 0
	}
	return len(m.Sets)
}

// modelStoreKey derives the content address of a discovered model: every
// input that can change the model's bytes is included (plus an algorithm
// revision salt, bumped whenever the discovery pipeline itself changes);
// Workers is deliberately excluded because it may not influence the
// output, only the effort. The stride/cap/maxsets text predates those
// becoming constants and stays so existing stores remain warm.
func modelStoreKey(geo memsim.Geometry, regions []nf.Region, seed uint64) string {
	parts := []string{
		"discover/v2",
		fmt.Sprintf("geo=%+v", geo),
		fmt.Sprintf("seed=%d stride=%d cap=%d maxsets=%d",
			seed, discoverStride, discoverPoolCap, discoverMaxSets),
	}
	for _, r := range regions {
		parts = append(parts, fmt.Sprintf("region=%s@%#x+%d", r.Name, r.Addr, r.Size))
	}
	return store.Key(parts...)
}

// discoverPool samples the attack regions at discoverStride lines and,
// past discoverPoolCap addresses per region, keeps a seeded random
// subsample. It is empty only when every region is.
func discoverPool(regions []nf.Region, geo memsim.Geometry, seed uint64) []uint64 {
	stride := uint64(discoverStride * geo.LineBytes)
	var pool []uint64
	for _, r := range regions {
		for a := r.Addr; a < r.Addr+r.Size; a += stride {
			pool = append(pool, a)
		}
	}
	// The pool budget is per region: an NF with several tables (the NAT's
	// two rings) needs each discovered set to hold enough members *within
	// each table* to exceed associativity there.
	poolCap := discoverPoolCap * len(regions)
	if len(pool) > poolCap {
		// Deterministic subsample.
		rng := stats.NewRNG(seed + 17)
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		pool = pool[:poolCap]
	}
	return pool
}

// discoverModel builds the contention-set model over the given attack
// regions, consulting the cross-run store first when one is configured.
// (nil, nil) means there was nothing to probe; sentinel errors from
// cachemodel distinguish the benign no-sets outcome (the paper's LPM
// two-stage result) from a budget cut or a suspicious filter wipeout.
func discoverModel(regions []nf.Region, hier *memsim.Hierarchy, cfg Config, rec *obs.Recorder) (*cachemodel.Model, error) {
	if !slices.ContainsFunc(regions, func(r nf.Region) bool { return r.Size > 0 }) {
		return nil, nil // an empty pool: nothing to probe
	}
	geo := hier.Geometry()
	// The pool is built inside discover: a store hit never reads it.
	discover := func() (*cachemodel.Model, error) {
		dcfg := cachemodel.DiscoverConfig{
			Pool:      discoverPool(regions, geo, cfg.Seed),
			Assoc:     geo.L3Assoc(),
			LineBytes: geo.LineBytes,
			LatL3:     geo.LatL3,
			LatDRAM:   geo.LatDRAM,
			MaxSets:   discoverMaxSets,
			Seed:      cfg.Seed,
			Workers:   cfg.Workers,
			Fork:      func() cachemodel.Prober { return hier.Fork() },
			Budget:    cfg.Budget.Stage(budget.StageDiscover),
		}
		if rec.Publishing() {
			dcfg.Progress = func(setsFound, poolLeft int) {
				rec.Progress("castan.discover", "contention_sets", uint64(setsFound), discoverMaxSets)
			}
		}
		return cachemodel.Discover(hier, dcfg)
	}
	st := cfg.Store
	if cfg.Faults.Enabled() {
		// A faulted run may derive a corrupted model; it must neither
		// trust nor feed the shared store.
		st = nil
	}
	if st == nil {
		return discover()
	}

	// Get, validate, derive, put — the rainbow tables' path, with no
	// in-process memo: a degraded or unusable outcome is never
	// remembered, so the next caller for this key starts from the store.
	// Load validates internal consistency, so a decodable-but-inconsistent
	// payload — or one for a geometry other than the probed one — is a
	// miss instead of poisoning the pipeline.
	key := modelStoreKey(geo, regions, cfg.Seed)
	if payload, ok := st.Get(store.KindModel, key); ok {
		if m, lerr := cachemodel.Load(bytes.NewReader(payload)); lerr == nil &&
			m.Assoc == geo.L3Assoc() && m.LineBytes == geo.LineBytes {
			rec.Counter("castan.store.hits").Inc()
			return m, nil
		}
	}
	rec.Counter("castan.store.misses").Inc()
	m, derr := discover()
	if derr == nil && m != nil {
		// Only a clean, non-empty model is persisted; a failed Save or Put
		// still leaves a perfectly usable model.
		var buf bytes.Buffer
		if m.Save(&buf) == nil && st.Put(store.KindModel, key, buf.Bytes()) == nil {
			rec.Counter("castan.store.writes").Inc()
		}
	}
	return m, derr
}

// concretize turns the state Analyze chose into the workload. A completed
// state's path constraints are solved and its havocs reconciled. A partial
// state (the search was cut) ships its cached model, which satisfies its
// path constraints by the engine invariant, and no state at all ships the
// empty model: neither is solved or reconciled, so every havoc site of
// theirs stays unreconciled. The degradations it records land in s.degr.
func (s *Search) concretize(inst *nf.Instance, st *symbex.State) (*Output, error) {
	cfg, eng := s.cfg, s.Engine
	if st == nil {
		s.joinTables(false)
		frames := buildFrames(eng, solver.Model{})
		return &Output{Report: Report{NF: inst.Name, Packets: packetReports(frames, nil)}, Frames: frames}, nil
	}
	// The cached model is both the fallback and the hint for every
	// reconciliation check. The solver runs on the pipeline goroutine, so
	// instrumenting it keeps the recorded totals deterministic.
	mdl := st.Model()
	sol := solver.Solver{
		Hint: mdl, MaxSteps: 30000, Obs: cfg.Obs,
		Budget: cfg.Budget.Stage(budget.StageSolver), ForceUnknown: eng.SolverFault,
	}
	cons := append([]*expr.Expr(nil), st.Constraints()...)
	reconcile := st.Done && !cfg.NoRainbow
	if st.Done {
		m, err := sol.Solve(cons)
		switch {
		case err == nil:
			mdl = m
			sol.Hint = mdl
		case errors.Is(err, solver.ErrBudget):
			// Budget exhaustion (or an injected Unknown) cut the final
			// solve: the cached model stands in, and with no solver left
			// there is nothing to re-check candidate preimages against.
			reconcile = false
			s.degrade("solve", err.Error(), "state's cached localRepair model")
		default:
			return nil, fmt.Errorf("state %d: %w", st.ID, err)
		}
	}

	uses := map[int]nf.HashUse{}
	for _, hu := range inst.Hashes {
		uses[hu.HashID] = hu
	}
	unrec := map[int]bool{}
	reconciled := 0
	if !reconcile {
		s.joinTables(false)
		for _, h := range st.Havocs {
			if _, known := uses[h.HashID]; known {
				unrec[h.HashID] = true
			}
		}
	} else {
		tables := s.joinTables(true)
		bRainbow := cfg.Budget.Stage(budget.StageRainbow)
		pinnedVars := map[expr.VarID]bool{}
		usedKeys := map[string]bool{}
		cut := false
		for _, h := range st.Havocs {
			hu, known := uses[h.HashID]
			if !known {
				continue
			}
			if !cut {
				// Havoc records are the rainbow stage's deterministic cut
				// points: single goroutine, fixed record order.
				if reason, ok := bRainbow.Exhausted(); ok {
					s.degrade("reconcile", reason, "remaining havoc sites left unreconciled")
					cut = true
				}
			}
			if cut {
				unrec[h.HashID] = true
				continue
			}
			extra := reconcileHavoc(&sol, cons, mdl, pinnedVars, usedKeys, h, hu, tables[h.HashID])
			if extra == nil {
				unrec[h.HashID] = true
				continue
			}
			cons = append(cons, extra...)
			m2, err := sol.Solve(cons)
			if err != nil {
				// The pins conflicted after all; drop them.
				cons = cons[:len(cons)-len(extra)]
				unrec[h.HashID] = true
				continue
			}
			mdl = m2
			sol.Hint = mdl
			reconciled++
			for _, ke := range h.Key {
				for _, v := range ke.VarList() {
					pinnedVars[v] = true
				}
			}
			for _, v := range h.OutVars {
				pinnedVars[v] = true
			}
		}
	}
	cfg.Obs.Counter("castan.havocs").Add(uint64(len(st.Havocs)))
	cfg.Obs.Counter("castan.havocs_reconciled").Add(uint64(reconciled))

	frames := buildFrames(eng, mdl)
	return &Output{
		Report: Report{
			NF:                inst.Name,
			Instrs:            st.Instrs,
			Loads:             st.Loads,
			Stores:            st.Stores,
			ExpectDRAM:        st.ExpectDRAM,
			ExpectHit:         st.ExpectHit,
			HavocsTotal:       len(st.Havocs),
			HavocsReconciled:  reconciled,
			UnreconciledSites: sortedSites(unrec),
			Packets:           packetReports(frames, st.PacketCosts),
		},
		Frames: frames,
	}, nil
}

// tableWork is one Analyze call's rainbow-table work: every hash site's
// table, built or loaded on a goroutine of its own while discovery and
// symbex run (DESIGN.md decision 21). The goroutine records nothing — no
// span, event, counter or budget charge; each site keeps what the store
// did instead, and joinTables records it on the pipeline goroutine.
type tableWork struct {
	done  chan struct{}
	sites []siteTable
	// pan is a panic the goroutine contained, for join to re-raise.
	pan any
}

// siteTable is one hash site's table (nil when building it failed) and
// what getting it did in the cross-run store.
type siteTable struct {
	hashID int
	tbl    *rainbow.Table
	store  storeOutcome
}

// storeOutcome is what one table build did in the cross-run store. It is
// zero when the table came from the TableCache or the run has no store.
type storeOutcome struct{ hit, miss, write bool }

func (o storeOutcome) record(rec *obs.Recorder) {
	if o.hit {
		rec.Counter("castan.store.hits").Inc()
	}
	if o.miss {
		rec.Counter("castan.store.misses").Inc()
	}
	if o.write {
		rec.Counter("castan.store.writes").Inc()
	}
}

// tableBuildFault, when non-nil, runs at the start of every table build
// on the table goroutine (a test seam; nil outside tests).
var tableBuildFault func(hashID int)

// startTables starts the table work for every havocable hash site of
// inst, or returns nil when there is none to do (NoRainbow, or no hash
// site). cfg must be filled: the work goes through cfg.Tables.
func startTables(inst *nf.Instance, cfg Config) *tableWork {
	if cfg.NoRainbow || !slices.ContainsFunc(inst.Hashes, func(h nf.HashUse) bool { return h.Space != nil }) {
		return nil
	}
	w := &tableWork{done: make(chan struct{})}
	go func() {
		defer close(w.done)
		defer func() { w.pan = recover() }()
		w.sites = buildRainbowTables(inst, cfg)
	}()
	return w
}

// join waits for the table work and hands its sites to the caller. The
// first join after the goroutine panicked re-raises that panic's value on
// the caller's goroutine instead. A nil *tableWork joins at once.
func (w *tableWork) join() []siteTable {
	if w == nil {
		return nil
	}
	<-w.done
	if p := w.pan; p != nil {
		w.pan = nil
		panic(p)
	}
	return w.sites
}

// joinTables joins the table work and records it on the pipeline
// goroutine, site by site in inst.Hashes order: the store outcome always;
// then, only when the run reconciles, the integrity gate, the rainbow
// counters and the StageRainbow charge, and the table joins the returned
// map. A run that does not reconcile records only the store work it did.
func (s *Search) joinTables(reconcile bool) map[int]*rainbow.Table {
	cfg := s.cfg
	out := map[int]*rainbow.Table{}
	for _, site := range s.tables.join() {
		site.store.record(cfg.Obs)
		if !reconcile || site.tbl == nil {
			continue
		}
		// Integrity gate: rewalk a handful of chains before trusting the
		// table (it may come from the shared cache or a faulty build). A
		// failed check drops the table — its havoc sites will simply stay
		// unreconciled, which is a degradation, not an error.
		//
		// Build effort is not recorded at build time: a table in a
		// caller-owned cache outlives one Analyze, so a build-time recorder
		// would credit all chain work to whichever run built it. Counting
		// here from the finished table charges every run identically,
		// cache hit or fresh build (DESIGN.md decision 8).
		tbl := site.tbl
		if scErr := tbl.SelfCheck(4); scErr != nil {
			s.degrade("rainbow", scErr.Error(),
				fmt.Sprintf("table for hash %d dropped; its havoc sites stay unreconciled", site.hashID))
			continue
		}
		cfg.Obs.Counter("rainbow.tables").Inc()
		cfg.Obs.Counter("rainbow.chains").Add(uint64(tbl.Chains()))
		cfg.Budget.Stage(budget.StageRainbow).Charge(uint64(tbl.Chains()) * uint64(tbl.ChainLen()))
		out[site.hashID] = tbl
	}
	return out
}

// buildRainbowTables builds or loads one rainbow table per havocable hash
// site through cfg.Tables (Analyze fills in a per-call cache when the
// caller passed none). It runs on the table goroutine, so it touches
// neither the recorder nor the budget.
func buildRainbowTables(inst *nf.Instance, cfg Config) []siteTable {
	corrupt := cfg.Faults.ChainHook()
	var out []siteTable
	for _, h := range inst.Hashes {
		if h.Space == nil {
			continue
		}
		h := h
		site := siteTable{hashID: h.HashID}
		key, diskKey, rcfg := rainbowSite(h)
		rcfg.Workers = cfg.Workers
		rcfg.Corrupt = corrupt
		diskStore := cfg.Store
		if cfg.Faults.Enabled() {
			// Faulted runs must neither trust the shared store nor feed
			// it a possibly corrupted table.
			diskStore = nil
		}
		// build sets site.store only when it runs: a table another call
		// or site already put in cfg.Tables records no store outcome.
		build := func() (*rainbow.Table, error) {
			if tableBuildFault != nil {
				tableBuildFault(h.HashID)
			}
			// Disk first: a stored table is only trusted after a
			// SelfCheck rewalks sample chains from the build seed —
			// decodable bytes with wrong chain data (tampering, torn
			// concurrent writers) are indistinguishable from a healthy
			// table any other way. Any failure is a plain miss.
			if payload, ok := diskStore.Get(store.KindRainbow, diskKey); ok {
				if tbl, lerr := rainbow.LoadTable(payload, h.Fn, h.Space); lerr == nil && tbl.SelfCheck(4) == nil {
					site.store.hit = true
					return tbl, nil
				}
			}
			site.store.miss = diskStore != nil
			tbl, err := rainbow.Build(h.Fn, h.Space, rcfg)
			if err != nil {
				return nil, err
			}
			if diskStore != nil {
				if data, serr := tbl.Serialize(); serr == nil && diskStore.Put(store.KindRainbow, diskKey, data) == nil {
					site.store.write = true
				}
			}
			return tbl, nil
		}
		// A failed build returns no table, and its sites stay
		// unreconciled; that is all the error changes.
		if corrupt != nil {
			// A corrupted table must never enter a cache the caller may
			// share with clean runs, so fault runs build privately and eat
			// the cost (diskStore is already nil under faults, so the
			// corrupted table cannot be persisted either).
			site.tbl, _ = build()
		} else {
			site.tbl, _ = cfg.Tables.tables.Do(key, build)
		}
		out = append(out, site)
	}
	return out
}

// rainbowSite sizes the table for one hash site and gives its two
// addresses: the in-process cache key, and the content address in the
// cross-run store. Both name what fixes the table's bytes — width, key
// space, chain geometry, seed and hash function — and not the site or its
// NF, so sites that need the same table (the NATs' forward and reverse
// flow tables) share one. The hash enters as its masked values on eight
// fixed keys of the space: a function has no other stable identity. Any
// edit that moves the store address silently cold-starts every existing
// store; bump the "rainbow/v3" salt on purpose instead.
func rainbowSite(h nf.HashUse) (cacheKey, diskKey string, rcfg rainbow.Config) {
	rcfg = rainbow.DefaultConfig(h.Bits)
	rcfg.Chains *= rainbowCoverage
	masked := nfhash.Masked(h.Fn, h.Bits)
	var fingerprint [8]uint64
	for i := range fingerprint {
		fingerprint[i] = masked(h.Space.FromSeed(uint64(i)))
	}
	cacheKey = fmt.Sprintf("bits=%d space=%T%v chains=%d len=%d seed=%d hash=%x",
		h.Bits, h.Space, h.Space, rcfg.Chains, rcfg.ChainLen, rcfg.Seed, fingerprint)
	return cacheKey, store.Key("rainbow/v3", cacheKey), rcfg
}

// reconcileHavoc implements §3.5's three-step reconciliation for one
// havoc record: solve for the hash value the path wants, invert it with
// the rainbow table, and re-check the preimage against the packet
// constraints. Returns the pin constraints on success, nil on failure.
func reconcileHavoc(sol *solver.Solver, cons []*expr.Expr, mdl solver.Model, pinnedVars map[expr.VarID]bool, usedKeys map[string]bool, h symbex.HavocRecord, hu nf.HashUse, tbl *rainbow.Table) []*expr.Expr {
	if tbl == nil {
		return nil
	}
	masked := nfhash.Masked(hu.Fn, hu.Bits)
	// If every variable of the key was already pinned by earlier
	// reconciliation, the real hash value is forced: reconciliation
	// succeeds only if it matches what the path wants. This is exactly
	// what fails for the NAT's second, related key (§5.4).
	keyForced := true
	for _, ke := range h.Key {
		for _, v := range ke.VarList() {
			if !pinnedVars[v] {
				keyForced = false
				break
			}
		}
		if !keyForced {
			break
		}
	}
	want := h.Out.Eval(map[expr.VarID]uint64(mdl))

	if keyForced {
		keyBytes := make([]byte, len(h.Key))
		for i, ke := range h.Key {
			keyBytes[i] = byte(ke.Eval(map[expr.VarID]uint64(mdl)))
		}
		// The true hash value is forced; pinning Out to it stays
		// satisfiable only if the path did not demand a different value.
		real := masked(keyBytes)
		pins := pinOut(h, real)
		if solver.QuickFeasible(append(append([]*expr.Expr(nil), cons...), pins...)) == solver.Unsat {
			return nil
		}
		if res, _ := sol.Check(append(append([]*expr.Expr(nil), cons...), pins...)); res == solver.Sat {
			return pins
		}
		return nil
	}

	// Key still has free bytes: invert candidate hash values and test
	// preimages against the constraints.
	rec := sol.Obs
	rec.Counter("rainbow.invert_attempts").Inc()
	// try checks candidates in order and returns the pins of the first
	// one the solver accepts, or nil. checked counts the candidates
	// checked, over every list tried.
	checked := 0
	try := func(candidates [][]byte) []*expr.Expr {
		rec.Counter("rainbow.invert_keys").Add(uint64(len(candidates)))
		for _, key := range candidates {
			if len(key) != len(h.Key) {
				continue
			}
			if usedKeys[string(key)] {
				continue // identical to an already-pinned key: flow uniqueness
			}
			checked++
			p := make([]*expr.Expr, 0, len(key)+len(h.OutVars))
			for j, ke := range h.Key {
				p = append(p, expr.Eq(ke, expr.Const(uint64(key[j]))))
			}
			p = append(p, pinOut(h, want)...)
			all := append(append([]*expr.Expr(nil), cons...), p...)
			if solver.QuickFeasible(all) == solver.Unsat {
				continue
			}
			// The check solver stays bare (no telemetry, budget or fault
			// hook): castan.reconcile_checks, recorded below, is what
			// these checks show in a run's counters.
			check := solver.Solver{MaxSteps: sol.MaxSteps, Hint: sol.Hint}
			if res, _ := check.Check(all); res == solver.Sat {
				usedKeys[string(key)] = true
				return p
			}
		}
		return nil
	}
	// Rainbow candidates come first; brute force (per §3.5: "brute-force
	// methods augmented by the use of rainbow tables") runs only when the
	// table had fewer than its 16 to offer and none of them was accepted.
	// The accepted key is the lowest-index Sat candidate of the table's
	// list followed by the brute-force list, whether or not the second
	// list is computed before the first is checked. The ring NFs always
	// accept the table's first key; the chain NFs' colliding packets want
	// one hash value many times, exhaust the few keys the table has for
	// it, and take the rest from the sweep.
	candidates := tbl.Invert(want, 16)
	pins := try(candidates)
	if pins == nil && len(candidates) < 16 {
		// Finding one preimage costs ~2^bits random tries; budget for a
		// handful, capped so wide hashes stay tractable.
		budget := 8 << uint(hu.Bits)
		if budget > 4<<20 {
			budget = 4 << 20
		}
		rec.Counter("rainbow.bruteforce_calls").Inc()
		pins = try(tbl.BruteForce(want, 48, budget, want^uint64(h.Packet)*0x9e3779b9))
	}
	rec.Counter("castan.reconcile_checks").Add(uint64(checked))
	return pins
}

// pinOut pins the havoc's output variables to a concrete hash value.
func pinOut(h symbex.HavocRecord, val uint64) []*expr.Expr {
	pins := make([]*expr.Expr, 0, len(h.OutVars))
	n := len(h.OutVars)
	for i, v := range h.OutVars {
		shift := uint((n - 1 - i) * 8)
		pins = append(pins, expr.Eq(expr.Var(v), expr.Const((val>>shift)&0xff)))
	}
	return pins
}

// frameFromModel reconstructs a well-formed frame for packet p from the
// solver model: the fields the NF observes are taken verbatim; cosmetic
// fields (version, checksum, lengths) are normalized so the frame parses.
func frameFromModel(eng *symbex.Engine, mdl solver.Model, p int) []byte {
	byteAt := func(off int) uint64 { return mdl[eng.PacketVar(p, off)] & 0xff }
	u16 := func(off int) uint16 { return uint16(byteAt(off))<<8 | uint16(byteAt(off+1)) }
	u32 := func(off int) uint32 {
		return uint32(byteAt(off))<<24 | uint32(byteAt(off+1))<<16 |
			uint32(byteAt(off+2))<<8 | uint32(byteAt(off+3))
	}
	proto := packet.IPProto(byteAt(packet.OffIPProto))
	if proto != packet.ProtoTCP {
		proto = packet.ProtoUDP
	}
	return packet.Build(packet.Spec{
		Proto:   proto,
		SrcIP:   u32(packet.OffIPSrc),
		DstIP:   u32(packet.OffIPDst),
		SrcPort: u16(packet.OffL4SrcPort),
		DstPort: u16(packet.OffL4DstPort),
	})
}

// Validate replays the synthesized frames through a fresh instance of the
// NF on the interpreter, returning the measured instruction count — a
// cheap cross-check that the adversarial path is real.
func Validate(name string, frames [][]byte) (uint64, error) {
	inst, err := nf.New(name)
	if err != nil {
		return 0, err
	}
	var instrs uint64
	for _, fr := range frames {
		_, err := inst.Process(fr)
		instrs += uint64(inst.Machine.Steps())
		if err != nil {
			return instrs, err
		}
	}
	return instrs, nil
}
