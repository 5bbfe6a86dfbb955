package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBenchCompareGate drives the perf gate end to end on nop: a baseline
// it just recorded passes, and the same baseline with symbex.instructions
// lowered makes the fresh run a regression that exits 1 and names the
// counter.
func TestBenchCompareGate(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	var out, errb bytes.Buffer
	if code := run([]string{"bench", "-nfs", "nop", "-out", base}, &out, &errb); code != 0 {
		t.Fatalf("recording the baseline: exit %d; stderr: %s", code, errb.String())
	}
	out.Reset()
	if code := run([]string{"bench", "-compare", base}, &out, &errb); code != 0 {
		t.Fatalf("untouched baseline: exit %d, want 0; stdout:\n%s", code, out.String())
	}

	raw, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	const col = "symbex.instructions"
	if len(rep.Rows) != 1 || rep.Rows[0].Counters[col] < 2 {
		t.Fatalf("baseline rows %+v: want one nop row with %s >= 2", rep.Rows, col)
	}
	rep.Rows[0].Counters[col] /= 2
	lowered := filepath.Join(dir, "lowered.json")
	if err := writeJSONFile(lowered, rep); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := run([]string{"bench", "-compare", lowered}, &out, &errb); code != 1 {
		t.Fatalf("lowered baseline: exit %d, want 1; stdout:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "FAIL nop: "+col+" regressed") {
		t.Errorf("gate output does not name %s:\n%s", col, out.String())
	}
}
