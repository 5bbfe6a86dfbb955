package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"castan/internal/obs/tracediff"
)

func TestIdenticalRunsExitClean(t *testing.T) {
	var out, errb bytes.Buffer
	code := tracediffCmd([]string{
		"-base", "testdata/base_metrics.json",
		"-new", "testdata/base_metrics.json",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "no counter or phase moved") {
		t.Errorf("output: %s", out.String())
	}
}

func TestRegressedRunExits3WithAttribution(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "report.json")
	var out, errb bytes.Buffer
	code := tracediffCmd([]string{
		"-base", "testdata/base_metrics.json",
		"-base-trace", "testdata/base_trace.jsonl",
		"-new", "testdata/regressed_metrics.json",
		"-new-trace", "testdata/regressed_trace.jsonl",
		"-json", jsonPath,
	}, &out, &errb)
	if code != 3 {
		t.Fatalf("exit %d, want 3; stderr: %s", code, errb.String())
	}
	text := out.String()
	for _, want := range []string{
		"memsim.probe_line_reads",
		"top regression: castan.discover",
		"critical path (base): castan.analyze",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}

	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep tracediff.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "castan-tracediff/v1" {
		t.Errorf("schema = %q", rep.Schema)
	}
	if rep.TopStage != "castan.discover" {
		t.Errorf("TopStage = %q, want castan.discover", rep.TopStage)
	}
	if len(rep.Regressions) == 0 || rep.Regressions[0].Name != "memsim.probe_line_reads" {
		t.Errorf("regressions = %+v", rep.Regressions)
	}
	// solver.queries moved +0.8% — inside tolerance, listed but not
	// regressed.
	for _, e := range rep.Regressions {
		if e.Name == "solver.queries" {
			t.Errorf("within-tolerance counter flagged: %+v", e)
		}
	}
}

func TestTraceOnlyComparison(t *testing.T) {
	var out, errb bytes.Buffer
	code := tracediffCmd([]string{
		"-base-trace", "testdata/base_trace.jsonl",
		"-new-trace", "testdata/regressed_trace.jsonl",
	}, &out, &errb)
	// Traces carry phases only (no counter samples in the JSONL fixture),
	// and phases never gate.
	if code != 0 {
		t.Fatalf("exit %d, want 0; stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "castan.discover") {
		t.Errorf("phase attribution missing:\n%s", out.String())
	}
}

func TestUsageErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := tracediffCmd(nil, &out, &errb); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	if code := tracediffCmd([]string{"-base", "testdata/base_metrics.json"}, &out, &errb); code != 2 {
		t.Errorf("missing new run: exit %d, want 2", code)
	}
	if code := tracediffCmd([]string{"-base", "testdata/nope.json", "-new", "testdata/base_metrics.json"}, &out, &errb); code != 1 {
		t.Errorf("missing file: exit %d, want 1", code)
	}
}

// TestCheckSubcommand pins the exit codes tracecheck had as a binary of
// its own: 0 on valid artifacts, 1 on a missing required counter or an
// unreadable file, 2 when given nothing to check.
func TestCheckSubcommand(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"check", "-metrics", "testdata/base_metrics.json", "-require", "solver.queries"}, 0},
		{[]string{"check", "-metrics", "testdata/base_metrics.json", "-require", "no.such.counter"}, 1},
		{[]string{"check", "-trace", "testdata/nope.json"}, 1},
		{[]string{"check"}, 2},
		{[]string{"check", "-bogus"}, 2},
	} {
		var out, errb bytes.Buffer
		if code := tracediffCmd(tc.args, &out, &errb); code != tc.want {
			t.Errorf("%v: exit %d, want %d; stderr: %s", tc.args, code, tc.want, errb.String())
		}
	}
}
