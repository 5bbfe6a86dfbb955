// castan tracediff compares two runs' telemetry artifacts — metrics
// snapshots (castan -metrics-out) and/or Chrome traces (castan -trace) —
// and attributes every counter and phase delta
// to the pipeline stage that owns it. It prints a human table and
// optionally writes the same report as JSON.
//
// Exit codes: 0 when no deterministic effort counter regressed beyond
// -tolerance, 3 when one did (the attribution is printed either way),
// 2 on usage errors, 1 on I/O or decode failures. Phase tick deltas are
// reported but never decide the exit code — under a wall clock they are
// load-dependent. Either run may be given as metrics, a trace, or both.

package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"castan/internal/obs"
	"castan/internal/obs/tracediff"
)

func tracediffCmd(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "check" {
		return tracediffCheck(args[1:], stdout, stderr)
	}
	fs := newFlagSet("castan tracediff", stderr)
	var (
		baseMetrics = fs.String("base", "", "baseline metrics JSON (obs.Metrics snapshot)")
		newMetrics  = fs.String("new", "", "new-run metrics JSON")
		baseTrace   = fs.String("base-trace", "", "baseline trace file (Chrome trace_event array, as castan -trace writes)")
		newTrace    = fs.String("new-trace", "", "new-run trace file")
		tolerance   = fs.Float64("tolerance", 0.05, "allowed relative effort-counter growth before a delta counts as a regression")
		jsonOut     = fs.String("json", "", "also write the report as JSON to this path")
	)
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}
	if (*baseMetrics == "" && *baseTrace == "") || (*newMetrics == "" && *newTrace == "") {
		fmt.Fprintln(stderr, "tracediff: need a baseline (-base and/or -base-trace) and a new run (-new and/or -new-trace)")
		return 2
	}
	base, err := tracediff.LoadRun(*baseMetrics, *baseTrace)
	if err != nil {
		return fail(stderr, "tracediff", err)
	}
	cur, err := tracediff.LoadRun(*newMetrics, *newTrace)
	if err != nil {
		return fail(stderr, "tracediff", err)
	}
	rep := tracediff.Diff(base, cur, *tolerance)
	rep.Render(stdout)
	if *jsonOut != "" {
		if err := writeJSONFile(*jsonOut, rep); err != nil {
			return fail(stderr, "tracediff", err)
		}
	}
	if rep.HasRegressions() {
		return 3
	}
	return 0
}

// tracediffCheck validates one run's artifacts: a -trace file against the
// Chrome trace_event schema, a -metrics-out file for nonzero -require
// counters. It exits 0 when they are valid, 1 when invalid or
// unreadable, 2 on a usage error.
func tracediffCheck(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("castan tracediff check", stderr)
	var (
		trace   = fs.String("trace", "", "Chrome trace file to validate")
		metrics = fs.String("metrics", "", "metrics JSON file to validate")
		require = fs.String("require", "", "comma-separated counters that must be present and nonzero in -metrics")
	)
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}
	if *trace == "" && *metrics == "" {
		fmt.Fprintln(stderr, "tracediff check: nothing to do; pass -trace and/or -metrics")
		return 2
	}
	fatal := func(err error) int { return fail(stderr, "tracediff check", err) }
	if *trace != "" {
		t, err := obs.ReadChromeTraceFile(*trace)
		if err != nil {
			return fatal(fmt.Errorf("%s: %w", *trace, err))
		}
		fmt.Fprintf(stdout, "%s: valid Chrome trace, %d events\n", *trace, t.Events)
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
