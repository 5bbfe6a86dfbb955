// castan testbed runs the paper's measurement campaign (§5) on the
// simulated DUT: figures (latency / reference-cycle CDFs) and tables
// (throughput, instructions, L3 misses, analysis effort, median latency
// deviations) for any subset of the NFs. With -progress the per-NF
// analyses interleave: that is live telemetry, not a deterministic
// stream. With -nf and -pcap it measures one NF under a custom workload.

package main

import (
	"fmt"
	"io"
	"strings"
	"time"

	"castan/internal/experiments"
	"castan/internal/testbed"
	"castan/internal/workload"
)

func testbedCmd(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("castan testbed", stderr)
	var (
		figure  = fs.Int("figure", 0, "reproduce one figure (4-15)")
		table   = fs.Int("table", 0, "reproduce one table (1-5)")
		all     = fs.Bool("all", false, "reproduce every table and figure")
		nfs     = fs.String("nfs", "", "comma-separated NF subset for tables")
		seed    = fs.Uint64("seed", 2018, "campaign seed")
		packets = fs.Int("packets", 0, "Zipfian/UniRand workload size (0 = the full campaign's, what results/ was generated at)")
		states  = fs.Int("states", experiments.CampaignStates, "CASTAN exploration budget (default: the full campaign's)")
		nfName  = fs.String("nf", "", "measure one NF under a custom workload")
		pcapIn  = fs.String("pcap", "", "PCAP file with the custom workload")
		mix     = fs.String("mix", "", "run the adversarial-fraction sweep (§5.5 future work) for this NF")
		workers = fs.Int("workers", 0, "worker count for the campaign (0 = GOMAXPROCS); table cells are identical at any value")
		tel     telemetry
	)
	tel.register(fs, "the campaign's CASTAN analyses")
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}
	fatal := func(err error) int { return fail(stderr, "testbed", err) }

	if *nfName != "" && *pcapIn != "" {
		if err := measurePCAP(*nfName, *pcapIn, *seed, stdout); err != nil {
			return fatal(err)
		}
		return 0
	}

	defer tel.stop()
	if err := tel.start(false, stdout, stderr); err != nil {
		return fatal(err)
	}
	c := experiments.NewCampaign(experiments.Config{
		Seed:         *seed,
		Packets:      *packets,
		CastanStates: *states,
		Workers:      *workers,
		Obs:          tel.rec,
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
			return fatal(err)
		}
		fmt.Fprintln(stdout, res.Render())
		fmt.Fprintf(stdout, "extra p95 ns per unit adversarial fraction: %.0f\n", res.DamagePerPacket())
	case *figure != 0:
		fig, err := c.Figure(*figure)
		if err != nil {
			return fatal(err)
		}
		fmt.Fprintln(stdout, fig.Render())
	case *table != 0:
		if err := renderTable(c, *table, subset, stdout); err != nil {
			return fatal(err)
		}
	case *all:
		for _, id := range []int{1, 2, 3, 4, 5} {
			if err := renderTable(c, id, subset, stdout); err != nil {
				return fatal(err)
			}
			fmt.Fprintln(stdout)
		}
		for _, id := range experiments.FigureIDs() {
			fig, err := c.Figure(id)
			if err != nil {
				return fatal(err)
			}
			fmt.Fprintln(stdout, fig.Render())
		}
	default:
		fs.Usage()
		return 2
	}
	fmt.Fprintf(stdout, "(campaign time: %s)\n", experiments.Elapsed(start))
	if err := tel.finish(tel.rec.Snapshot(), "campaign trace", "campaign metrics", stdout); err != nil {
		return fatal(err)
	}
	return 0
}

func renderTable(c *experiments.Campaign, id int, nfs []string, stdout io.Writer) error {
	tables := []func([]string) (*experiments.Table, error){c.Table1, c.Table2, c.Table3, c.Table4, c.Table5}
	if id < 1 || id > len(tables) {
		return fmt.Errorf("no table %d", id)
	}
	t, err := tables[id-1](nfs)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, t.Render())
	return nil
}

func measurePCAP(nfName, path string, seed uint64, stdout io.Writer) error {
	wl, err := workload.FromPCAP("custom", path)
	if err != nil {
		return err
	}
	m, err := testbed.Measure(nfName, wl, testbed.Options{Seed: seed})
	if err != nil {
		return err
	}
	nop, err := testbed.MeasureNOP(testbed.Options{Seed: seed})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s under %s (%d packets, %d flows):\n", nfName, path, len(wl.Frames), wl.Flows)
	fmt.Fprintf(stdout, "  median latency     %.0f ns (NOP deviation %.0f ns)\n", m.Latency.Median(), m.MedianDeviation(nop))
	fmt.Fprintf(stdout, "  median cycles      %.0f\n", m.Cycles.Median())
	fmt.Fprintf(stdout, "  median instrs      %.0f\n", m.Instrs.Median())
	fmt.Fprintf(stdout, "  median L3 misses   %.0f\n", m.L3Misses.Median())
	fmt.Fprintf(stdout, "  max throughput     %.2f Mpps\n", m.ThroughputMpps)
	return nil
}
