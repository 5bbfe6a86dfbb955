package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"castan/internal/castan"
	"castan/internal/obs"
	"castan/internal/pcap"
	"castan/internal/stats"
	"castan/internal/testbed"
	"castan/internal/workload"
)

// analysisJob is one analysis of a pass: an NF on a DUT whose seed is the
// run's seed plus an offset or, for a pooled job, the offset-th seed the
// run drew from probeSeeds.
type analysisJob struct {
	NF      string
	SeedOff uint64
	Pooled  bool
}

// probeSeeds are the DUT seeds cold-probe draws lpm-dl1's from. How many
// lines contention-set discovery probes depends on the DUT's hidden
// slice hash: over seeds 1..120 it ranges from 1.24 M to 1.71 M line
// reads (one outlier at 0.68 M), and wall time with it, so runs on
// different seeds would time different amounts of work. These are the
// seeds in 1..120 whose memsim.probe_line_reads (a deterministic count a
// traced child reports) lies within 2.2 % of 1.478 M: a run still meets
// DUTs it has not seen, and every run does the same work within that.
var probeSeeds = []uint64{
	2, 5, 6, 14, 17, 19, 33, 38, 47, 58, 60, 65, 68, 70, 78, 81, 83, 84,
	86, 87, 88, 89, 90, 92, 93, 95, 96, 97, 99, 101, 102, 104, 109, 116, 118, 120,
}

func jobsFor(names ...string) []analysisJob {
	out := make([]analysisJob, len(names))
	for i, n := range names {
		out[i] = analysisJob{NF: n}
	}
	return out
}

func (j analysisJob) id() string { return fmt.Sprintf("%s+%d", j.NF, j.SeedOff) }

// analysisInputs describes one of the four analysis workloads.
type analysisInputs struct {
	jobs []analysisJob
	// warmup is analysed once, untimed, during set-up so the first timed
	// child does not pay for paging the binary in. Cold workloads only.
	warmup []analysisJob
	// fillStore makes set-up run one cold pass of jobs into a fresh
	// store, which every timed pass then reads.
	fillStore bool
}

// analysisInstance is a set-up analysis workload. Every analysis is a
// fresh child process: castan keeps a process-wide rainbow-table cache,
// so a repeat in one process would not be cold (nor honestly warm).
type analysisInstance struct {
	h     *harness
	in    analysisInputs
	seed  uint64
	drawn []uint64 // probeSeeds in this run's order
	store string
	// first holds, per job, what its first analysis produced; every later
	// one must match it exactly.
	firstFrames   map[string][32]byte
	firstCounters map[string]map[string]uint64
	lastDir       string
}

func analysisSetup(in analysisInputs) func(*harness, uint64) (instance, error) {
	return func(h *harness, seed uint64) (instance, error) {
		a := &analysisInstance{
			h: h, in: in, seed: seed,
			firstFrames:   map[string][32]byte{},
			firstCounters: map[string]map[string]uint64{},
			drawn:         slices.Clone(probeSeeds),
		}
		stats.NewRNG(seed).Shuffle(len(a.drawn), func(i, j int) { a.drawn[i], a.drawn[j] = a.drawn[j], a.drawn[i] })
		warm := in.warmup
		if in.fillStore {
			var err error
			if a.store, err = h.dir("store"); err != nil {
				return nil, err
			}
			warm = in.jobs
		}
		dir, err := h.dir("setup")
		if err != nil {
			return nil, err
		}
		for _, j := range warm {
			// The filling pass is a cold run of the same inputs, so its
			// frames are the reference the warm passes must reproduce.
			if _, err := a.analyze(nil, "setup", j, dir); err != nil {
				return nil, err
			}
		}
		return a, nil
	}
}

// dutSeed is the seed of the DUT j is analysed on.
func (a *analysisInstance) dutSeed(j analysisJob) uint64 {
	if j.Pooled {
		return a.drawn[j.SeedOff]
	}
	return a.seed + j.SeedOff
}

// checkedRun is one child analysis that passed the correctness gate.
type checkedRun struct {
	wall time.Duration
	res  analyzeResult
}

// analyze runs one child and applies the correctness gate: the report
// passes its schema check, the replay validates, nothing degraded, and
// the frames (and, when traced, every telemetry count) equal the job's
// first analysis.
func (a *analysisInstance) analyze(tr *tracer, run string, j analysisJob, passDir string) (*checkedRun, error) {
	dir := filepath.Join(passDir, j.id())
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	args := []string{"analyze", "-nf", j.NF, "-seed", fmt.Sprint(a.dutSeed(j)), "-dir", dir}
	if a.store != "" {
		args = append(args, "-store", a.store)
	}
	if tr != nil {
		args = append(args, "-traced")
	}
	out := &checkedRun{}
	sp := tr.begin(run, "child", 0)
	var err error
	out.wall, err = spawn(a.h.self, &out.res, args...)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	tr.adopt(run, sp, out.res.Spans)

	f, err := os.Open(filepath.Join(dir, j.NF+".report.json"))
	if err != nil {
		return nil, err
	}
	rep, err := castan.ReadReport(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	if err := rep.Check(j.NF); err != nil {
		return nil, fmt.Errorf("%s: report: %w", j.id(), err)
	}
	if out.res.Degraded || len(rep.Degradations) > 0 {
		return nil, fmt.Errorf("%s: analysis degraded: %+v", j.id(), rep.Degradations)
	}
	if out.res.ValidateErr != "" {
		return nil, fmt.Errorf("%s: validation replay: %s", j.id(), out.res.ValidateErr)
	}
	raw, err := os.ReadFile(filepath.Join(dir, j.NF+".pcap"))
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(raw)
	if first, seen := a.firstFrames[j.id()]; seen && first != sum {
		return nil, fmt.Errorf("%s: frames differ from the job's first analysis", j.id())
	} else if !seen {
		a.firstFrames[j.id()] = sum
	}
	if t := out.res.Telemetry; t != nil {
		if first, seen := a.firstCounters[j.id()]; seen {
			if diff := counterDiff(first, t.Counters); diff != "" {
				return nil, fmt.Errorf("%s: telemetry counts differ from the job's first traced analysis: %s", j.id(), diff)
			}
		} else {
			a.firstCounters[j.id()] = t.Counters
		}
	}
	return out, nil
}

func counterDiff(a, b map[string]uint64) string {
	var diffs []string
	for k, v := range a {
		if b[k] != v {
			diffs = append(diffs, fmt.Sprintf("%s %d != %d", k, v, b[k]))
		}
	}
	for k, v := range b {
		if _, ok := a[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s 0 != %d", k, v))
		}
	}
	return strings.Join(diffs, ", ")
}

func (a *analysisInstance) pass(tr *tracer, n int) passOutcome {
	var out passOutcome
	dir, err := a.h.dir("pass")
	if err != nil {
		return passOutcome{attempted: 1, failed: 1, problems: []string{err.Error()}}
	}
	a.lastDir = dir
	if tr != nil {
		out.layer = map[string]float64{}
	}
	for _, j := range a.in.jobs {
		out.attempted++
		run := fmt.Sprintf("pass%d/%s", n, j.id())
		an, err := a.analyze(tr, run, j, dir)
		if err != nil {
			out.failed++
			out.problems = append(out.problems, err.Error())
			continue
		}
		out.wall += an.wall
		out.opMS = append(out.opMS, an.wall.Seconds()*1e3)
		out.rssMB = max(out.rssMB, an.res.PeakRSSMB)
		if tr == nil {
			continue
		}
		addTelemetry(out.layer, an.res.Telemetry)
		out.layer["castan.budget_ticks"] += float64(an.res.BudgetTicks)
		for _, s := range an.res.Spans {
			if s.Name == "castan.Analyze" {
				out.layer["castan.nf."+j.NF+".analyze_s"] += float64(s.End-s.Start) / 1e9
			}
		}
		if a.store != "" && an.res.Telemetry.Counters["castan.store.hits"] == 0 {
			out.failed++
			out.problems = append(out.problems, j.id()+": warm analysis never hit the store")
		}
	}
	return out
}

// telemetryCounters are the Output.Telemetry counts reported per layer;
// they are deterministic, so they repeat exactly across passes.
var telemetryCounters = []string{
	"castan.havocs_reconciled", "castan.store.hits", "rainbow.chains",
	"solver.queries", "solver.backtracks", "solver.memo_hits", "solver.memo_misses",
	"symbex.states_explored", "symbex.instructions", "symbex.forks",
	"symbex.folded_instructions", "symbex.pruned_edges",
	"memsim.probe_line_reads", "memsim.dram_misses",
}

// addTelemetry adds one analysis's stage phases (as castan.<stage>_ms)
// and layer counters into a pass's per-layer sums.
func addTelemetry(layer map[string]float64, t *obs.Metrics) {
	if t == nil {
		return
	}
	for _, p := range t.Phases {
		// Phase "castan.symbex" becomes metric "castan.symbex_ms".
		layer[p.Name+"_ms"] += float64(p.TotalNanos) / 1e6
	}
	for _, c := range telemetryCounters {
		layer[c] += float64(t.Counters[c])
	}
}

// quality replays each job's synthesized frames on the simulated DUT:
// the geometric mean of the median cycles per packet says how
// adversarial the output is, the second number the paper sells.
func (a *analysisInstance) quality() (float64, []string) {
	var cycles []float64
	var problems []string
	for _, j := range a.in.jobs {
		frames, err := pcap.ReadFile(filepath.Join(a.lastDir, j.id(), j.NF+".pcap"))
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		c, err := measureCycles(j.NF, frames, a.dutSeed(j))
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		cycles = append(cycles, c)
	}
	return geomean(cycles), problems
}

// measureCycles is the median simulated cycles per packet of frames
// looped through nfName on a DUT with the given seed.
func measureCycles(nfName string, frames [][]byte, seed uint64) (float64, error) {
	m, err := testbed.Measure(nfName, workload.FromFrames("CASTAN", frames), testbed.Options{Seed: seed, MeasureCap: 2048})
	if err != nil {
		return 0, fmt.Errorf("%s: measuring synthesized frames: %w", nfName, err)
	}
	return m.Cycles.Median(), nil
}

func (a *analysisInstance) close() {}
