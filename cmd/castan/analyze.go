package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"castan/internal/budget"
	"castan/internal/castan"
	"castan/internal/memsim"
	"castan/internal/nf"
	"castan/internal/obs"
	"castan/internal/pcap"
	"castan/internal/store"
	"castan/internal/workload"
)

// analyzeCmd is castan without a subcommand: analyze one NF and write its
// adversarial workload.
func analyzeCmd(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("castan", stderr)
	var (
		nfName   = fs.String("nf", "", "network function to analyze ("+strings.Join(nf.Names, ", ")+")")
		packets  = fs.Int("packets", 0, "adversarial workload length (default: the paper's per-NF size)")
		states   = fs.Int("states", 6000, "symbolic exploration budget")
		seed     = fs.Uint64("seed", 2018, "seed for discovery sampling and the DUT's hidden hash")
		out      = fs.String("out", "", "PCAP output path (default <nf>-castan.pcap)")
		noCache  = fs.Bool("no-cache-model", false, "disable the cache model (ablation)")
		storeDir = fs.String("store", "", "cross-run artifact store directory: cache models and rainbow tables are reused from it and persisted to it; a warm store skips discovery with byte-identical output")
		report   = fs.String("report", "", "write the per-packet metrics report (JSON) to this path")
		noRain   = fs.Bool("no-rainbow", false, "disable havoc reconciliation (ablation)")
		validate = fs.Bool("validate", true, "replay the workload on the interpreter as a sanity check")
		workers  = fs.Int("workers", 0, "worker count for parallel analysis stages (0 = GOMAXPROCS); output is identical at any value")
		memProf  = fs.String("memprofile", "", "write a pprof heap profile to this path")
		budgetT  = fs.Uint64("budget", 0, "whole-run budget in deterministic ticks (0 = unlimited); on exhaustion the pipeline degrades instead of failing")
		deadline = fs.Duration("deadline", 0, "wall-clock deadline (0 = none); checked at deterministic pipeline points and degrades like -budget")
		failDeg  = fs.Bool("fail-on-degraded", false, "exit 1 instead of 3 when any stage degraded")
		events   = fs.String("events", "", "stream the live ProgressEvent feed as JSON Lines to this path")
		tel      telemetry
	)
	tel.register(fs, "the analysis")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "Usage: castan [flags] | castan <subcommand> [flags]\nsubcommands: %s\nflags:\n", subcommandList())
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}
	if *nfName == "" {
		fmt.Fprintln(stderr, "castan: -nf is required; known NFs:", strings.Join(nf.Names, ", "))
		return 2
	}
	if _, ok := nf.Catalog[*nfName]; !ok {
		fmt.Fprintf(stderr, "castan: unknown NF %q; known NFs:\n", *nfName)
		for _, n := range nf.Names {
			fmt.Fprintf(stderr, "  %s\n", n)
		}
		return 2
	}
	fatal := func(err error) int { return fail(stderr, "castan", err) }
	inst, err := nf.New(*nfName)
	if err != nil {
		return fatal(err)
	}
	np := *packets
	if np == 0 {
		np = nf.PaperPackets[*nfName]
	}
	if np == 0 {
		np = 30
	}
	hier := memsim.New(memsim.DefaultGeometry(), *seed)
	fmt.Fprintf(stdout, "analyzing %s (%d packets, %d states budget) on %s\n",
		*nfName, np, *states, hier.Geometry())
	cfg := castan.Config{
		NPackets:     np,
		MaxStates:    *states,
		Seed:         *seed,
		NoCacheModel: *noCache,
		NoRainbow:    *noRain,
		Workers:      *workers,
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			return fatal(err)
		}
		cfg.Store = st
	}
	if *budgetT > 0 || *deadline > 0 {
		cfg.Budget = budget.New(*budgetT)
		if *deadline > 0 {
			cfg.Budget.SetDeadline(nil, *deadline)
		}
	}
	defer tel.stop()
	if err := tel.start(*events != "", stdout, stderr); err != nil {
		return fatal(err)
	}
	cfg.Obs = tel.rec
	var eventsSink *obs.JSONLSink
	if *events != "" {
		if eventsSink, err = obs.OpenJSONLSink(*events); err != nil {
			return fatal(err)
		}
		defer eventsSink.Close() // for error paths; closing twice is harmless
		cfg.Obs.Subscribe(eventsSink)
	}
	res, err := castan.Analyze(inst, hier, cfg)
	if err != nil {
		return fatal(err)
	}
	if eventsSink != nil {
		// The stream is complete once Analyze returns: a buffered write
		// that never reached disk must fail the run, not vanish.
		if err := eventsSink.Close(); err != nil {
			return fatal(fmt.Errorf("events stream %s: %w", *events, err))
		}
		fmt.Fprintf(stdout, "streamed progress events to %s\n", *events)
	}
	if err := tel.finish(res.Telemetry, "pipeline trace", "metrics", stdout); err != nil {
		return fatal(err)
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			return fatal(err)
		}
		runtime.GC()
		err = pprof.WriteHeapProfile(f)
		f.Close()
		if err != nil {
			return fatal(err)
		}
	}
	path := *out
	if path == "" {
		path = *nfName + "-castan.pcap"
	}
	if err := pcap.WriteFile(path, res.Frames); err != nil {
		return fatal(err)
	}
	w := workload.FromFrames("CASTAN", res.Frames)
	fmt.Fprintf(stdout, "wrote %s: %d packets, %d flows\n", path, len(res.Frames), w.Flows)
	fmt.Fprintf(stdout, "analysis: %.1fs, %d states explored, %d contention sets, havocs %d/%d reconciled\n",
		res.AnalysisSeconds, res.StatesExplored, res.ContentionSetsFound,
		res.HavocsReconciled, res.HavocsTotal)
	fmt.Fprintf(stdout, "predicted path: %d instrs, %d loads, %d stores, %d expected DRAM trips\n",
		res.Instrs, res.Loads, res.Stores, res.ExpectDRAM)
	if res.StaticCostBound > 0 {
		fmt.Fprintf(stdout, "static worst-case bound: %d cycles for %d packets (worst path after %d state pops)\n",
			res.StaticCostBound, len(res.Frames), res.StepsToWorstPath)
	}
	for i, pm := range res.Packets {
		fmt.Fprintf(stdout, "  packet %2d: %5d predicted cycles\n", i, pm.PredictedCycles)
	}
	if *report != "" {
		if err := res.WriteReportFile(*report); err != nil {
			return fatal(err)
		}
		fmt.Fprintf(stdout, "wrote metrics report to %s\n", *report)
	}
	if *validate {
		instrs, err := castan.Validate(*nfName, res.Frames)
		switch {
		case err != nil && res.Degraded():
			// A degraded workload is best-effort by contract; a replay
			// hiccup is information, not a failure.
			fmt.Fprintf(stdout, "validation replay failed on degraded workload: %v\n", err)
		case err != nil:
			return fatal(fmt.Errorf("validation replay: %w", err))
		default:
			fmt.Fprintf(stdout, "validation replay executed %d instructions (prediction: %d)\n", instrs, res.Instrs)
		}
	}
	if res.Degraded() {
		fmt.Fprintf(stdout, "DEGRADED: %d stage(s) cut short, %d budget ticks used\n",
			len(res.Degradations), res.BudgetTicksUsed)
		for _, d := range res.Degradations {
			fmt.Fprintf(stdout, "  %s: %s; fallback: %s\n", d.Stage, d.Reason, d.Fallback)
		}
		if len(res.UnreconciledSites) > 0 {
			fmt.Fprintf(stdout, "  unreconciled hash sites: %v\n", res.UnreconciledSites)
		}
		if *failDeg {
			return 1
		}
		return 3
	}
	return 0
}
