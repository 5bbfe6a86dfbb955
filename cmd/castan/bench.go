// castan bench runs an instrumented CASTAN analysis over the seed NF
// catalog with modest budgets and writes per-NF phase durations plus core
// effort counters as one JSON file (results/BENCH_castan.json via `make
// bench-metrics`), the recorded baseline that performance changes are
// diffed against. Only the counter columns are run-to-run stable: durations come
// from the wall clock. With -compare it is the CI perf gate instead: it
// re-runs the baseline's configuration and exits 1 if any deterministic
// effort counter regresses by more than -tolerance.

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"castan/internal/budget"
	"castan/internal/castan"
	"castan/internal/memsim"
	"castan/internal/nf"
	"castan/internal/obs"
	"castan/internal/obs/tracediff"
	"castan/internal/store"
)

type row struct {
	NF       string            `json:"nf"`
	Error    string            `json:"error,omitempty"`
	Seconds  float64           `json:"seconds,omitempty"`
	Phases   []obs.Phase       `json:"phases,omitempty"`
	Counters map[string]uint64 `json:"counters,omitempty"`
	// Searcher efficiency: state pops until the path that ends up worst
	// completes. StaticCostBound is the abstract cache analysis's
	// worst-case cycle bound for the workload.
	StepsToWorst    int    `json:"steps_to_worst,omitempty"`
	StaticCostBound uint64 `json:"static_cost_bound,omitempty"`
	// Degraded flags runs that hit a budget or fault fallback (always
	// false here — castan bench runs with an unlimited counting meter —
	// but recorded so regressions that start degrading are visible).
	// BudgetTicksUsed is the run's deterministic tick total: the stable
	// effort column performance PRs should diff first.
	Degraded        bool   `json:"degraded"`
	BudgetTicksUsed uint64 `json:"budget_ticks_used"`
}

type report struct {
	Schema  string `json:"schema"`
	Packets int    `json:"packets"`
	States  int    `json:"states"`
	Seed    uint64 `json:"seed"`
	Rows    []row  `json:"rows"`
}

func benchCmd(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("castan bench", stderr)
	var (
		out       = fs.String("out", "results/BENCH_castan.json", "output path")
		nfs       = fs.String("nfs", "", "comma-separated NF subset (default: the full catalog)")
		packets   = fs.Int("packets", 6, "workload length per NF")
		states    = fs.Int("states", 4000, "exploration budget per NF")
		seed      = fs.Uint64("seed", 2018, "analysis seed")
		storeDir  = fs.String("store", "", "cross-run artifact store directory (see castan -store)")
		compare   = fs.String("compare", "", "baseline bench JSON: re-run its configuration and exit 1 if any deterministic effort counter regresses more than -tolerance (perf gate mode; -out/-packets/-states/-seed are ignored)")
		tolerance = fs.Float64("tolerance", 0.05, "allowed relative effort-counter regression in -compare mode")
		attribDir = fs.String("attrib-dir", "", "in -compare mode, write per-NF tracediff attribution reports (JSON) to this directory on failure — CI uploads them as artifacts")
	)
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}
	var st *store.Store
	if *storeDir != "" {
		var err error
		if st, err = store.Open(*storeDir); err != nil {
			return fail(stderr, "bench", err)
		}
	}
	if *compare != "" {
		return compareAgainst(*compare, *tolerance, st, *attribDir, stdout, stderr)
	}
	names := nf.Names
	if *nfs != "" {
		names = strings.Split(*nfs, ",")
	}
	rep := report{Schema: "castan-bench-metrics/v1", Packets: *packets, States: *states, Seed: *seed}
	rep.Rows = runRows(names, *packets, *states, *seed, st, stdout)
	if err := writeJSONFile(*out, rep); err != nil {
		return fail(stderr, "bench", err)
	}
	fmt.Fprintf(stdout, "wrote %s (%d NFs)\n", *out, len(rep.Rows))
	return 0
}

func runRows(names []string, packets, states int, seed uint64, st *store.Store, stdout io.Writer) []row {
	var rows []row
	for _, name := range names {
		name = strings.TrimSpace(name)
		r := row{NF: name}
		inst, err := nf.New(name)
		if err != nil {
			r.Error = err.Error()
			rows = append(rows, r)
			continue
		}
		rec := obs.New(nil)
		hier := memsim.New(memsim.DefaultGeometry(), seed)
		// An unlimited meter never cuts anything; it only counts, giving
		// each row its deterministic tick total.
		meter := budget.New(0)
		res, err := castan.Analyze(inst, hier, castan.Config{
			NPackets:  packets,
			MaxStates: states,
			Seed:      seed,
			Obs:       rec,
			Budget:    meter,
			Store:     st,
		})
		if err != nil {
			r.Error = err.Error()
			rows = append(rows, r)
			continue
		}
		r.Seconds = res.AnalysisSeconds
		r.Phases = res.Telemetry.Phases
		r.Counters = map[string]uint64{}
		// The effort columns every row carries: the catalog's gated rows.
		for _, c := range obs.GateCounters {
			r.Counters[c] = res.Telemetry.Counters[c]
		}
		r.StepsToWorst = res.StepsToWorstPath
		r.StaticCostBound = res.StaticCostBound
		r.Degraded = res.Degraded()
		r.BudgetTicksUsed = res.BudgetTicksUsed
		rows = append(rows, r)
		fmt.Fprintf(stdout, "%-12s %6.2fs  %d states, %d solver queries, %d probe line reads, %d DRAM misses, worst path in %d pops\n",
			name, r.Seconds, r.Counters["symbex.states_explored"],
			r.Counters["solver.queries"], r.Counters["memsim.probe_line_reads"],
			r.Counters["memsim.dram_misses"], r.StepsToWorst)
	}
	return rows
}

// compareAgainst is the perf-gate mode: re-run the baseline's exact
// configuration and diff every deterministic effort counter. Counters are
// compared over the intersection of the baseline's and the fresh run's
// columns, so a baseline written before a counter existed still gates the
// counters it has. Wall-clock fields are never compared. On failure the
// tracediff attribution table names which stage's counters moved, and
// attribDir (when set) receives the per-NF reports as JSON for CI
// artifact upload.
func compareAgainst(path string, tolerance float64, st *store.Store, attribDir string, stdout, stderr io.Writer) int {
	fatal := func(err error) int { return fail(stderr, "bench", err) }
	raw, err := os.ReadFile(path)
	if err != nil {
		return fatal(err)
	}
	var base report
	if err := json.Unmarshal(raw, &base); err != nil {
		return fatal(fmt.Errorf("decode baseline %s: %w", path, err))
	}
	if base.Schema != "castan-bench-metrics/v1" {
		return fatal(fmt.Errorf("baseline %s has schema %q, want castan-bench-metrics/v1", path, base.Schema))
	}
	names := make([]string, 0, len(base.Rows))
	for _, r := range base.Rows {
		names = append(names, r.NF)
	}
	fmt.Fprintf(stdout, "perf gate: re-running %d NFs (packets=%d states=%d seed=%d) against %s, tolerance %.0f%%\n",
		len(names), base.Packets, base.States, base.Seed, path, tolerance*100)
	fresh := runRows(names, base.Packets, base.States, base.Seed, st, stdout)
	regressions := 0
	for i, br := range base.Rows {
		fr := fresh[i]
		if br.Error != "" {
			if fr.Error == "" {
				fmt.Fprintf(stdout, "  %s: baseline errored (%s), fresh run succeeds — update the baseline\n", br.NF, br.Error)
			}
			continue
		}
		if fr.Error != "" {
			fmt.Fprintf(stdout, "FAIL %s: fresh run errored: %s\n", fr.NF, fr.Error)
			regressions++
			continue
		}
		if fr.Degraded && !br.Degraded {
			fmt.Fprintf(stdout, "FAIL %s: fresh run degraded, baseline did not\n", fr.NF)
			regressions++
		}
		check := func(col string, bv, fv uint64) {
			if fv > bv && float64(fv) > float64(bv)*(1+tolerance) {
				fmt.Fprintf(stdout, "FAIL %s: %s regressed %d -> %d (+%.1f%%)\n",
					fr.NF, col, bv, fv, 100*(float64(fv)/float64(bv)-1))
				regressions++
			}
		}
		for col, bv := range br.Counters {
			if fv, ok := fr.Counters[col]; ok {
				check(col, bv, fv)
			}
		}
		check("budget_ticks_used", br.BudgetTicksUsed, fr.BudgetTicksUsed)

		// Stage attribution for the failures: the tracediff report names
		// which stage owns each regressed counter instead of leaving a
		// bare FAIL line, and attribDir receives it as a CI artifact.
		rep := tracediff.Diff(rowRun(br, "baseline "+br.NF), rowRun(fr, "fresh "+fr.NF), tolerance)
		if rep.HasRegressions() {
			rep.Render(stdout)
			if attribDir != "" {
				if err := writeAttrib(attribDir, fr.NF, rep); err != nil {
					fmt.Fprintln(stderr, "bench: attribution report:", err)
				}
			}
		}
	}
	if regressions > 0 {
		fmt.Fprintf(stdout, "perf gate: %d regression(s) beyond %.0f%% tolerance\n", regressions, tolerance*100)
		return 1
	}
	fmt.Fprintln(stdout, "perf gate: all effort counters within tolerance")
	return 0
}

// rowRun lifts a bench row into a tracediff run: the gated effort
// counters plus budget_ticks_used as a pseudo-counter, and the recorded
// phase durations for attribution.
func rowRun(r row, label string) *tracediff.Run {
	counters := make(map[string]uint64, len(r.Counters)+1)
	for k, v := range r.Counters {
		counters[k] = v
	}
	counters["budget_ticks_used"] = r.BudgetTicksUsed
	return &tracediff.Run{Label: label, Counters: counters, Phases: r.Phases}
}

func writeAttrib(dir, nfName string, rep *tracediff.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return writeJSONFile(filepath.Join(dir, "attrib_"+nfName+".json"), rep)
}
