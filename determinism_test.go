package repro

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"castan/internal/castan"
	"castan/internal/experiments"
	"castan/internal/memsim"
	"castan/internal/nf"
	"castan/internal/pcap"
)

// The repo-wide determinism rule (DESIGN.md decision 6): the worker count
// changes only scheduling, never output. These tests pin it end to end —
// the same seed must produce byte-identical PCAPs from castan.Analyze and
// identical table renders from the campaign at W=1, W=4 and W=8.

func analyzeWorkload(t *testing.T, workers int) (*castan.Output, []byte) {
	t.Helper()
	inst, err := nf.New("lb-chain")
	if err != nil {
		t.Fatal(err)
	}
	hier := memsim.New(memsim.DefaultGeometry(), 2018)
	out, err := castan.Analyze(inst, hier, castan.Config{
		NPackets:  10,
		MaxStates: 4000,
		Seed:      2018,
		Workers:   workers,
	})
	if err != nil {
		t.Fatalf("Analyze(W=%d): %v", workers, err)
	}
	path := filepath.Join(t.TempDir(), "out.pcap")
	if err := pcap.WriteFile(path, out.Frames); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return out, raw
}

func TestWorkerCountDeterminismAnalyze(t *testing.T) {
	refOut, refPCAP := analyzeWorkload(t, 1)
	for _, w := range []int{4, 8} {
		out, raw := analyzeWorkload(t, w)
		if !bytes.Equal(raw, refPCAP) {
			t.Errorf("W=%d: PCAP bytes differ from W=1 (%d vs %d bytes)", w, len(raw), len(refPCAP))
		}
		if out.StatesExplored != refOut.StatesExplored {
			t.Errorf("W=%d: explored %d states, W=1 explored %d", w, out.StatesExplored, refOut.StatesExplored)
		}
		if out.HavocsReconciled != refOut.HavocsReconciled || out.HavocsTotal != refOut.HavocsTotal {
			t.Errorf("W=%d: havocs %d/%d, W=1 %d/%d", w,
				out.HavocsReconciled, out.HavocsTotal, refOut.HavocsReconciled, refOut.HavocsTotal)
		}
	}
}

// tableCells renders a table without Table 4's wall-clock "Time (s)"
// column, the one cell that is real elapsed time by design (DESIGN.md
// decision 6) and therefore legitimately varies between runs.
func tableCells(t *testing.T, tbl *experiments.Table) string {
	t.Helper()
	skip := -1
	for i, col := range tbl.Columns {
		if col == "Time (s)" {
			skip = i
		}
	}
	var b strings.Builder
	for _, row := range tbl.Rows {
		b.WriteString(row.Label)
		for i, cell := range row.Cells {
			if i == skip {
				continue
			}
			b.WriteString("|")
			b.WriteString(cell)
		}
		b.WriteString("\n")
	}
	return b.String()
}

func TestWorkerCountDeterminismTables(t *testing.T) {
	nfs := []string{"lb-chain", "lpm-dl1"}
	render := func(workers int) string {
		c := experiments.NewCampaign(experiments.Config{Workers: workers})
		var b strings.Builder
		builds := []struct {
			id    int
			build func([]string) (*experiments.Table, error)
		}{{2, c.Table2}, {4, c.Table4}, {5, c.Table5}}
		for _, tb := range builds {
			tbl, err := tb.build(nfs)
			if err != nil {
				t.Fatalf("table %d (W=%d): %v", tb.id, workers, err)
			}
			b.WriteString(tableCells(t, tbl))
		}
		return b.String()
	}
	ref := render(1)
	for _, w := range []int{4, 8} {
		if got := render(w); got != ref {
			t.Errorf("W=%d table cells differ from W=1:\n--- W=1\n%s--- W=%d\n%s", w, ref, w, got)
		}
	}
}
