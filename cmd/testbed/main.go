// Command testbed runs the paper's measurement campaign (§5) on the
// simulated DUT: figures (latency / reference-cycle CDFs) and tables
// (throughput, instructions, L3 misses, analysis effort, median latency
// deviations) for any subset of the NFs.
//
// Usage:
//
//	testbed -figure 4             # one figure
//	testbed -table 1 -nfs lpm-dl1,lpm-dl2
//	testbed -all                  # the whole campaign (slow)
//	testbed -nf lb-chain -pcap workload.pcap   # measure a custom PCAP
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"castan/internal/experiments"
	"castan/internal/obs"
	"castan/internal/testbed"
	"castan/internal/workload"
)

func main() {
	var (
		figure   = flag.Int("figure", 0, "reproduce one figure (4-15)")
		table    = flag.Int("table", 0, "reproduce one table (1-5)")
		all      = flag.Bool("all", false, "reproduce every table and figure")
		nfs      = flag.String("nfs", "", "comma-separated NF subset for tables")
		seed     = flag.Uint64("seed", 2018, "campaign seed")
		packets  = flag.Int("packets", 0, "Zipfian/UniRand workload size (0 = the full campaign's, what results/ was generated at)")
		states   = flag.Int("states", experiments.CampaignStates, "CASTAN exploration budget (default: the full campaign's)")
		nfName   = flag.String("nf", "", "measure one NF under a custom workload")
		pcapIn   = flag.String("pcap", "", "PCAP file with the custom workload")
		mix      = flag.String("mix", "", "run the adversarial-fraction sweep (§5.5 future work) for this NF")
		workers  = flag.Int("workers", 0, "worker count for the campaign (0 = GOMAXPROCS); table cells are identical at any value")
		trace    = flag.String("trace", "", "write a Chrome trace_event file of the campaign's CASTAN analyses to this path")
		metrics  = flag.String("metrics-out", "", "write the campaign's aggregated analysis metrics (JSON) to this path")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile to this path")
		progress = flag.Bool("progress", false, "render live campaign progress on stderr (per-NF analyses interleave: this is live telemetry, not a deterministic stream)")
		httpDbg  = flag.String("httpdebug", "", "serve net/http/pprof and a /metricsz live metrics snapshot on this address (e.g. localhost:6060); local profiling only — never expose beyond localhost")
	)
	flag.Parse()

	if *nfName != "" && *pcapIn != "" {
		measurePCAP(*nfName, *pcapIn, *seed)
		return
	}

	var rec *obs.Recorder
	if *trace != "" || *metrics != "" || *progress || *httpDbg != "" {
		rec = obs.New(nil)
	}
	if *progress {
		rec.Subscribe(obs.NewTTYRenderer(os.Stderr))
	}
	if *httpDbg != "" {
		ln, err := obs.ServeDebug(*httpDbg, rec)
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
	c := experiments.NewCampaign(experiments.Config{
		Seed:         *seed,
		Packets:      *packets,
		CastanStates: *states,
		Workers:      *workers,
		Obs:          rec,
	})
	var subset []string
	if *nfs != "" {
		subset = strings.Split(*nfs, ",")
	}

	start := time.Now()
	switch {
	case *mix != "":
		res, err := c.MixedSweep(*mix, nil)
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.Render())
		fmt.Printf("extra p95 ns per unit adversarial fraction: %.0f\n", res.DamagePerPacket())
	case *figure != 0:
		fig, err := c.Figure(*figure)
		if err != nil {
			fatal(err)
		}
		fmt.Println(fig.Render())
	case *table != 0:
		renderTable(c, *table, subset)
	case *all:
		for _, id := range []int{1, 2, 3, 4, 5} {
			renderTable(c, id, subset)
			fmt.Println()
		}
		for _, id := range experiments.FigureIDs() {
			fig, err := c.Figure(id)
			if err != nil {
				fatal(err)
			}
			fmt.Println(fig.Render())
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
	fmt.Printf("(campaign time: %s)\n", experiments.Elapsed(start))
	if *trace != "" {
		if err := rec.WriteChromeTraceFile(*trace); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote campaign trace to %s\n", *trace)
	}
	if *metrics != "" {
		if err := rec.Snapshot().WriteJSONFile(*metrics); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote campaign metrics to %s\n", *metrics)
	}
}

func renderTable(c *experiments.Campaign, id int, nfs []string) {
	var (
		t   *experiments.Table
		err error
	)
	switch id {
	case 1:
		t, err = c.Table1(nfs)
	case 2:
		t, err = c.Table2(nfs)
	case 3:
		t, err = c.Table3(nfs)
	case 4:
		t, err = c.Table4(nfs)
	case 5:
		t, err = c.Table5(nfs)
	default:
		fatal(fmt.Errorf("no table %d", id))
	}
	if err != nil {
		fatal(err)
	}
	fmt.Println(t.Render())
}

func measurePCAP(nfName, path string, seed uint64) {
	wl, err := workload.FromPCAP("custom", path)
	if err != nil {
		fatal(err)
	}
	m, err := testbed.Measure(nfName, wl, testbed.Options{Seed: seed})
	if err != nil {
		fatal(err)
	}
	nop, err := testbed.MeasureNOP(testbed.Options{Seed: seed})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s under %s (%d packets, %d flows):\n", nfName, path, len(wl.Frames), wl.Flows)
	fmt.Printf("  median latency     %.0f ns (NOP deviation %.0f ns)\n", m.Latency.Median(), m.MedianDeviation(nop))
	fmt.Printf("  median cycles      %.0f\n", m.Cycles.Median())
	fmt.Printf("  median instrs      %.0f\n", m.Instrs.Median())
	fmt.Printf("  median L3 misses   %.0f\n", m.L3Misses.Median())
	fmt.Printf("  max throughput     %.2f Mpps\n", m.ThroughputMpps)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "testbed:", err)
	os.Exit(1)
}
