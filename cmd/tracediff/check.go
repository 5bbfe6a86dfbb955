// tracediff check validates observability artifacts produced by
// cmd/castan and cmd/testbed: that a -trace file matches the Chrome
// trace_event schema the exporter promises (CI runs it on the smoke
// trace before uploading artifacts), and optionally that a -metrics-out
// file carries nonzero values for required counters.
//
// Usage:
//
//	tracediff check -trace out.jsonl
//	tracediff check -trace out.jsonl -metrics metrics.json -require solver.queries,memsim.dram_misses
//
// Exit codes: 0 = artifacts valid, 1 = invalid or unreadable, 2 = usage
// error.

package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"castan/internal/obs"
)

func check(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracediff check", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		trace   = fs.String("trace", "", "Chrome trace file to validate")
		metrics = fs.String("metrics", "", "metrics JSON file to validate")
		require = fs.String("require", "", "comma-separated counters that must be present and nonzero in -metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace == "" && *metrics == "" {
		fmt.Fprintln(stderr, "tracediff check: nothing to do; pass -trace and/or -metrics")
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "tracediff check:", err)
		return 1
	}
	if *trace != "" {
		n, err := obs.ValidateChromeTraceFile(*trace)
		if err != nil {
			return fatal(fmt.Errorf("%s: %w", *trace, err))
		}
		fmt.Fprintf(stdout, "%s: valid Chrome trace, %d events\n", *trace, n)
	}
	if *metrics != "" {
		f, err := os.Open(*metrics)
		if err != nil {
			return fatal(err)
		}
		m, err := obs.ReadMetrics(f)
		f.Close()
		if err != nil {
			return fatal(fmt.Errorf("%s: %w", *metrics, err))
		}
		if *require != "" {
			for _, name := range strings.Split(*require, ",") {
				name = strings.TrimSpace(name)
				if name == "" {
					continue
				}
				if m.Counters[name] == 0 {
					return fatal(fmt.Errorf("%s: required counter %q is missing or zero", *metrics, name))
				}
				fmt.Fprintf(stdout, "%s: %s = %d\n", *metrics, name, m.Counters[name])
			}
		}
		fmt.Fprintf(stdout, "%s: %d counters, %d gauges, %d histograms, %d phases\n",
			*metrics, len(m.Counters), len(m.Gauges), len(m.Histograms), len(m.Phases))
	}
	return 0
}
