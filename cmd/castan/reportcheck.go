// castan reportcheck validates a castan metrics report (JSON) read from
// a file or fetched from a castand endpoint (-url): it must decode against
// the report schema, carry a well-formed packet list, and (optionally)
// match an expected NF. -require-degraded also asserts the run recorded
// degradations and a budget tick account (the fault-smoke gate);
// -compare asserts a second report describes the identical outcome,
// wall-clock time and telemetry aside (the store-smoke gate).
//
// Exit codes: 0 = report accepted, 1 = rejected or unreadable, 2 = usage
// error.

package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"castan/internal/castan"
)

func reportcheckCmd(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("castan reportcheck", stderr)
	var (
		path    = fs.String("report", "", "report JSON path")
		url     = fs.String("url", "", "fetch the report from a castand endpoint instead of a file")
		nfName  = fs.String("nf", "", "expected NF name (optional)")
		reqDeg  = fs.Bool("require-degraded", false, "fail unless the report records degradations and budget ticks")
		compare = fs.String("compare", "", "second report that must describe the identical outcome (only analysis_seconds and telemetry may differ)")
		timeout = fs.Duration("timeout", 2*time.Minute, "HTTP timeout for -url fetches")
	)
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}
	if (*path == "") == (*url == "") {
		fmt.Fprintln(stderr, "reportcheck: exactly one of -report or -url is required")
		return 2
	}
	fatal := func(err error) int { return fail(stderr, "reportcheck", err) }
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
		return fatal(err)
	}
	if *compare != "" {
		other, err := loadReport(*compare)
		if err != nil {
			return fatal(err)
		}
		if !rep.SameOutcome(other) {
			return fatal(fmt.Errorf("%s and %s describe different outcomes (beyond analysis_seconds/telemetry)", src, *compare))
		}
		fmt.Fprintf(stdout, "reportcheck: %s and %s describe the identical outcome\n", src, *compare)
	}
	if err := rep.Check(*nfName); err != nil {
		return fatal(err)
	}
	if *reqDeg {
		if len(rep.Degradations) == 0 {
			return fatal(fmt.Errorf("no degradations recorded; expected a budget-cut run"))
		}
		if rep.BudgetTicksUsed == 0 {
			return fatal(fmt.Errorf("budget_ticks_used is zero on a budget-cut run"))
		}
	}
	fmt.Fprintf(stdout, "reportcheck: %s ok (nf %s, %d packets, %d degradations, %d ticks)\n",
		src, rep.NF, len(rep.Packets), len(rep.Degradations), rep.BudgetTicksUsed)
	return 0
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
