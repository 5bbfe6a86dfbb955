// Command castan analyzes a network function and synthesizes an
// adversarial workload, writing it as a PCAP file together with the
// per-packet predicted performance metrics — the reproduction of the
// paper's analysis tool.
//
// Usage:
//
//	castan -nf lpm-dl1 -packets 40 -out adversarial.pcap
//	castan reportcheck|rainbow|contention [flags]
//
// Exit codes: 0 = clean analysis, 1 = failure, 2 = usage error,
// 3 = degraded analysis (a budget or deadline cut a stage short and the
// emitted workload is best-effort; see the "degradations" report field).
//
// The subcommands are the tool's small companions, each with its own
// flag set (castan <subcommand> -h): reportcheck gates a metrics report,
// rainbow builds one §3.5 table and reports its coverage, contention runs
// §3.2 discovery on a bare region.
package main

import (
	"flag"
	"fmt"
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

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "reportcheck":
			reportcheck(os.Args[2:])
			return
		case "rainbow":
			rainbowCmd(os.Args[2:])
			return
		case "contention":
			contention(os.Args[2:])
			return
		}
	}
	var (
		nfName   = flag.String("nf", "", "network function to analyze ("+strings.Join(nf.Names, ", ")+")")
		packets  = flag.Int("packets", 0, "adversarial workload length (default: the paper's per-NF size)")
		states   = flag.Int("states", 6000, "symbolic exploration budget")
		seed     = flag.Uint64("seed", 2018, "seed for discovery sampling and the DUT's hidden hash")
		out      = flag.String("out", "", "PCAP output path (default <nf>-castan.pcap)")
		noCache  = flag.Bool("no-cache-model", false, "disable the cache model (ablation)")
		storeDir = flag.String("store", "", "cross-run artifact store directory: cache models and rainbow tables are reused from it and persisted to it; a warm store skips discovery with byte-identical output")
		report   = flag.String("report", "", "write the per-packet metrics report (JSON) to this path")
		noRain   = flag.Bool("no-rainbow", false, "disable havoc reconciliation (ablation)")
		validate = flag.Bool("validate", true, "replay the workload on the interpreter as a sanity check")
		workers  = flag.Int("workers", 0, "worker count for parallel analysis stages (0 = GOMAXPROCS); output is identical at any value")
		trace    = flag.String("trace", "", "write a Chrome trace_event file (load in chrome://tracing or ui.perfetto.dev) of the pipeline to this path")
		metrics  = flag.String("metrics-out", "", "write the run's counters/gauges/histograms/phases (JSON) to this path")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile to this path")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile to this path")
		budgetT  = flag.Uint64("budget", 0, "whole-run budget in deterministic ticks (0 = unlimited); on exhaustion the pipeline degrades instead of failing")
		deadline = flag.Duration("deadline", 0, "wall-clock deadline (0 = none); checked at deterministic pipeline points and degrades like -budget")
		failDeg  = flag.Bool("fail-on-degraded", false, "exit 1 instead of 3 when any stage degraded")
		progress = flag.Bool("progress", false, "render live per-stage progress on stderr while the analysis runs")
		events   = flag.String("events", "", "stream the live ProgressEvent feed as JSON Lines to this path")
		httpDbg  = flag.String("httpdebug", "", "serve net/http/pprof and a /metricsz live metrics snapshot on this address (e.g. localhost:6060); local profiling only — never expose beyond localhost")
	)
	flag.Parse()
	if *nfName == "" {
		fmt.Fprintln(os.Stderr, "castan: -nf is required; known NFs:", strings.Join(nf.Names, ", "))
		os.Exit(2)
	}
	if _, ok := nf.Catalog[*nfName]; !ok {
		fmt.Fprintf(os.Stderr, "castan: unknown NF %q; known NFs:\n", *nfName)
		for _, n := range nf.Names {
			fmt.Fprintf(os.Stderr, "  %s\n", n)
		}
		os.Exit(2)
	}
	inst, err := nf.New(*nfName)
	if err != nil {
		fatal(err)
	}
	np := *packets
	if np == 0 {
		np = nf.PaperPackets[*nfName]
	}
	if np == 0 {
		np = 30
	}
	hier := memsim.New(memsim.DefaultGeometry(), *seed)
	fmt.Printf("analyzing %s (%d packets, %d states budget) on %s\n",
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
			fatal(err)
		}
		cfg.Store = st
	}
	if *budgetT > 0 || *deadline > 0 {
		cfg.Budget = budget.New(*budgetT)
		if *deadline > 0 {
			cfg.Budget.SetDeadline(nil, *deadline)
		}
	}
	if *trace != "" || *metrics != "" || *progress || *events != "" || *httpDbg != "" {
		// CLI runs use the wall clock: trace durations are real time.
		cfg.Obs = obs.New(nil)
	}
	if *progress {
		cfg.Obs.Subscribe(obs.NewTTYRenderer(os.Stderr))
	}
	// The events sink is closed explicitly on every exit path (fatal and
	// os.Exit bypass defers): a buffered write that never reached disk
	// must fail the run, not vanish.
	var eventsSink *obs.JSONLSink
	if *events != "" {
		var err error
		eventsSink, err = obs.OpenJSONLSink(*events)
		if err != nil {
			fatal(err)
		}
		cfg.Obs.Subscribe(eventsSink)
	}
	closeEvents := func() {
		if eventsSink == nil {
			return
		}
		if err := eventsSink.Close(); err != nil {
			eventsSink = nil
			fatal(fmt.Errorf("events stream %s: %w", *events, err))
		}
		eventsSink = nil
	}
	if *httpDbg != "" {
		ln, err := obs.ServeDebug(*httpDbg, cfg.Obs)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("debug server on http://%s (/debug/pprof/, /metricsz) — local profiling only\n", ln.Addr())
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	res, err := castan.Analyze(inst, hier, cfg)
	if err != nil {
		if eventsSink != nil {
			_ = eventsSink.Close() // best-effort flush; the analysis error wins
		}
		fatal(err)
	}
	// The stream is complete once Analyze returns; close (and flush) it
	// before any later exit path can bypass the deferred stack.
	closeEvents()
	if *events != "" {
		fmt.Printf("streamed progress events to %s\n", *events)
	}
	if *trace != "" {
		if err := cfg.Obs.WriteChromeTraceFile(*trace); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote pipeline trace to %s\n", *trace)
	}
	if *metrics != "" {
		if err := res.Telemetry.WriteJSONFile(*metrics); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote metrics to %s\n", *metrics)
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}
	path := *out
	if path == "" {
		path = *nfName + "-castan.pcap"
	}
	if err := pcap.WriteFile(path, res.Frames); err != nil {
		fatal(err)
	}
	w := workload.FromFrames("CASTAN", res.Frames)
	fmt.Printf("wrote %s: %d packets, %d flows\n", path, len(res.Frames), w.Flows)
	fmt.Printf("analysis: %.1fs, %d states explored, %d contention sets, havocs %d/%d reconciled\n",
		res.AnalysisSeconds, res.StatesExplored, res.ContentionSetsFound,
		res.HavocsReconciled, res.HavocsTotal)
	fmt.Printf("predicted path: %d instrs, %d loads, %d stores, %d expected DRAM trips\n",
		res.Instrs, res.Loads, res.Stores, res.ExpectDRAM)
	if res.StaticCostBound > 0 {
		fmt.Printf("static worst-case bound: %d cycles for %d packets (worst path after %d state pops)\n",
			res.StaticCostBound, len(res.Frames), res.StepsToWorstPath)
	}
	for i, pm := range res.Packets {
		fmt.Printf("  packet %2d: %5d predicted cycles\n", i, pm.PredictedCycles)
	}
	if *report != "" {
		if err := res.WriteReportFile(*report); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote metrics report to %s\n", *report)
	}
	if *validate {
		instrs, err := castan.Validate(*nfName, res.Frames)
		switch {
		case err != nil && res.Degraded():
			// A degraded workload is best-effort by contract; a replay
			// hiccup is information, not a failure.
			fmt.Printf("validation replay failed on degraded workload: %v\n", err)
		case err != nil:
			fatal(fmt.Errorf("validation replay: %w", err))
		default:
			fmt.Printf("validation replay executed %d instructions (prediction: %d)\n", instrs, res.Instrs)
		}
	}
	if res.Degraded() {
		fmt.Printf("DEGRADED: %d stage(s) cut short, %d budget ticks used\n",
			len(res.Degradations), res.BudgetTicksUsed)
		for _, d := range res.Degradations {
			fmt.Printf("  %s: %s; fallback: %s\n", d.Stage, d.Reason, d.Fallback)
		}
		if len(res.UnreconciledSites) > 0 {
			fmt.Printf("  unreconciled hash sites: %v\n", res.UnreconciledSites)
		}
		if *failDeg {
			os.Exit(1)
		}
		os.Exit(3)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "castan:", err)
	os.Exit(1)
}
