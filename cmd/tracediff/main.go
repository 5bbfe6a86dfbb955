// Command tracediff compares two runs' telemetry artifacts — metrics
// snapshots (cmd/castan -metrics-out) and/or trace exports (-trace, in
// Chrome or native JSONL format) — and attributes every counter and phase
// delta to the pipeline stage that owns it. It prints a human table and
// optionally writes the same report as JSON.
//
// Exit codes: 0 when no deterministic effort counter regressed beyond
// -tolerance, 3 when one did (the attribution is printed either way),
// 2 on usage errors, 1 on I/O or decode failures. Phase tick deltas are
// reported but never decide the exit code — under a wall clock they are
// load-dependent.
//
// Usage:
//
//	tracediff -base metrics_a.json -new metrics_b.json
//	tracediff -base a.json -base-trace a_trace.json -new b.json -new-trace b_trace.json -json report.json
//	tracediff -base-trace a_trace.json -new-trace b_trace.json
//	tracediff check -trace out.jsonl -metrics metrics.json -require solver.queries
//
// The check subcommand (check.go) validates one run's artifacts instead
// of comparing two.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"castan/internal/obs/tracediff"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "check" {
		return check(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("tracediff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		baseMetrics = fs.String("base", "", "baseline metrics JSON (obs.Metrics snapshot)")
		newMetrics  = fs.String("new", "", "new-run metrics JSON")
		baseTrace   = fs.String("base-trace", "", "baseline trace file (Chrome or native JSONL)")
		newTrace    = fs.String("new-trace", "", "new-run trace file")
		tolerance   = fs.Float64("tolerance", 0.05, "allowed relative effort-counter growth before a delta counts as a regression")
		jsonOut     = fs.String("json", "", "also write the report as JSON to this path")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*baseMetrics == "" && *baseTrace == "") || (*newMetrics == "" && *newTrace == "") {
		fmt.Fprintln(stderr, "tracediff: need a baseline (-base and/or -base-trace) and a new run (-new and/or -new-trace)")
		return 2
	}
	base, err := tracediff.LoadRun(*baseMetrics, *baseTrace)
	if err != nil {
		fmt.Fprintln(stderr, "tracediff:", err)
		return 1
	}
	cur, err := tracediff.LoadRun(*newMetrics, *newTrace)
	if err != nil {
		fmt.Fprintln(stderr, "tracediff:", err)
		return 1
	}
	rep := tracediff.Diff(base, cur, *tolerance)
	rep.Render(stdout)
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintln(stderr, "tracediff:", err)
			return 1
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", " ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(stderr, "tracediff:", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(stderr, "tracediff:", err)
			return 1
		}
	}
	if rep.HasRegressions() {
		return 3
	}
	return 0
}
