// castan reportcheck validates a castan metrics report (JSON): the file
// must decode against the report schema, carry a well-formed packet list,
// and (optionally) match an expected NF. With -require-degraded it
// additionally asserts the run recorded stage degradations and a budget
// tick account — the CI fault-smoke gate uses this to prove a budget-cut
// run still emits a complete, parseable report. With -compare it asserts
// a second report describes the identical analysis outcome: every field
// must match except wall-clock time and the telemetry snapshot, which
// legitimately differ between runs (e.g. a warm-store run skips
// discovery effort). The CI store-smoke gate uses this to prove a warm
// store changes effort, never output. With -url the report is fetched
// from a running castand endpoint instead of a file, so the service
// smoke test reuses the same schema gate as offline runs.
//
// Usage:
//
//	castan reportcheck -report report.json -nf lpm-trie -require-degraded
//	castan reportcheck -report cold.json -compare warm.json
//	castan reportcheck -url 'http://127.0.0.1:8080/v1/analyze?nf=lpm-trie&packets=4'
//
// Exit codes: 0 = report accepted, 1 = rejected or unreadable, 2 = usage
// error.

package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"castan/internal/castan"
)

func reportcheck(args []string) {
	fs := flag.NewFlagSet("castan reportcheck", flag.ExitOnError)
	var (
		path    = fs.String("report", "", "report JSON path")
		url     = fs.String("url", "", "fetch the report from a castand endpoint instead of a file")
		nfName  = fs.String("nf", "", "expected NF name (optional)")
		reqDeg  = fs.Bool("require-degraded", false, "fail unless the report records degradations and budget ticks")
		compare = fs.String("compare", "", "second report that must describe the identical outcome (only analysis_seconds and telemetry may differ)")
		timeout = fs.Duration("timeout", 2*time.Minute, "HTTP timeout for -url fetches")
	)
	fs.Parse(args)
	if (*path == "") == (*url == "") {
		fmt.Fprintln(os.Stderr, "reportcheck: exactly one of -report or -url is required")
		os.Exit(2)
	}
	var (
		rep *castan.Report
		src string
		err error
	)
	if *url != "" {
		src = *url
		rep, err = fetchReport(*url, *timeout)
	} else {
		src = *path
		rep, err = loadReport(*path)
	}
	if err != nil {
		fatal(err)
	}
	if *compare != "" {
		other, err := loadReport(*compare)
		if err != nil {
			fatal(err)
		}
		if !rep.SameOutcome(other) {
			fatal(fmt.Errorf("%s and %s describe different outcomes (beyond analysis_seconds/telemetry)", src, *compare))
		}
		fmt.Printf("reportcheck: %s and %s describe the identical outcome\n", src, *compare)
	}
	if err := rep.Check(*nfName); err != nil {
		fatal(err)
	}
	if *reqDeg {
		if len(rep.Degradations) == 0 {
			fatal(fmt.Errorf("no degradations recorded; expected a budget-cut run"))
		}
		if rep.BudgetTicksUsed == 0 {
			fatal(fmt.Errorf("budget_ticks_used is zero on a budget-cut run"))
		}
	}
	fmt.Printf("reportcheck: %s ok (nf %s, %d packets, %d degradations, %d ticks)\n",
		src, rep.NF, len(rep.Packets), len(rep.Degradations), rep.BudgetTicksUsed)
}

func loadReport(path string) (*castan.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return castan.ReadReport(f)
}

func fetchReport(url string, timeout time.Duration) (*castan.Report, error) {
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, body)
	}
	return castan.ReadReport(resp.Body)
}
