// Package repro's benchmark harness: one benchmark per table and figure
// of the paper's evaluation (§5). Each benchmark drives the same
// experiments the paper reports and emits the headline quantities as
// custom benchmark metrics, so `go test -bench=. -benchmem` regenerates
// the entire campaign. Rendered tables and figures are also written to
// the results/ directory. There is one campaign configuration, so -short
// (CI's bench-smoke) runs the same campaign and rewrites results/ with
// the same cells; only Table 4's wall-clock Time column varies.
//
// The campaign object is shared across benchmarks (CASTAN analyses and
// measurements are cached), so the first benchmark to need an NF pays its
// analysis cost.
package repro

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"castan/internal/experiments"
)

var (
	campaignOnce sync.Once
	campaign     *experiments.Campaign
)

// benchCampaign returns the shared campaign: experiments.Config's zero
// value, the evaluation results/ is generated at, with or without -short.
func benchCampaign() *experiments.Campaign {
	campaignOnce.Do(func() {
		campaign = experiments.NewCampaign(experiments.Config{})
		_ = os.MkdirAll("results", 0o755)
	})
	return campaign
}

func writeResult(name, content string) {
	_ = os.WriteFile("results/"+name, []byte(content), 0o644)
}

// benchFigure reproduces one figure and reports each series' median as a
// custom metric.
func benchFigure(b *testing.B, id int, metricUnit string) {
	c := benchCampaign()
	var fig *experiments.Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = c.Figure(id)
		if err != nil {
			b.Fatal(err)
		}
	}
	writeResult(fmt.Sprintf("figure%02d.txt", id), fig.Render())
	for name, cdf := range fig.Series {
		metric := strings.ReplaceAll(name, " ", "-") + "_" + metricUnit
		b.ReportMetric(cdf.Median(), metric)
	}
}

func BenchmarkFig04LatencyLPMDL1(b *testing.B)       { benchFigure(b, 4, "ns") }
func BenchmarkFig05CyclesLPMDL1(b *testing.B)        { benchFigure(b, 5, "cyc") }
func BenchmarkFig06LatencyLPMDL2(b *testing.B)       { benchFigure(b, 6, "ns") }
func BenchmarkFig07LatencyLPMTrie(b *testing.B)      { benchFigure(b, 7, "ns") }
func BenchmarkFig08CyclesLPMTrie(b *testing.B)       { benchFigure(b, 8, "cyc") }
func BenchmarkFig09LatencyNATUBTree(b *testing.B)    { benchFigure(b, 9, "ns") }
func BenchmarkFig10CyclesNATUBTree(b *testing.B)     { benchFigure(b, 10, "cyc") }
func BenchmarkFig11LatencyNATRBTree(b *testing.B)    { benchFigure(b, 11, "ns") }
func BenchmarkFig12LatencyLBHashTable(b *testing.B)  { benchFigure(b, 12, "ns") }
func BenchmarkFig13LatencyLBHashRing(b *testing.B)   { benchFigure(b, 13, "ns") }
func BenchmarkFig14LatencyNATHashTable(b *testing.B) { benchFigure(b, 14, "ns") }
func BenchmarkFig15LatencyNATHashRing(b *testing.B)  { benchFigure(b, 15, "ns") }

// benchTable reproduces one table.
func benchTable(b *testing.B, id int, build func([]string) (*experiments.Table, error)) {
	var tbl *experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = build(nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	writeResult(fmt.Sprintf("table%d.txt", id), tbl.Render())
	b.ReportMetric(float64(len(tbl.Rows)), "rows")
}

func BenchmarkTable1Throughput(b *testing.B) {
	c := benchCampaign()
	benchTable(b, 1, c.Table1)
}

func BenchmarkTable2Instructions(b *testing.B) {
	c := benchCampaign()
	benchTable(b, 2, c.Table2)
}

func BenchmarkTable3L3Misses(b *testing.B) {
	c := benchCampaign()
	benchTable(b, 3, c.Table3)
}

func BenchmarkTable4AnalysisTime(b *testing.B) {
	c := benchCampaign()
	benchTable(b, 4, c.Table4)
}

func BenchmarkTable5MedianDeviation(b *testing.B) {
	c := benchCampaign()
	benchTable(b, 5, c.Table5)
}

// Ablation benches for the design choices DESIGN.md calls out: the cache
// model and the rainbow stage. Each compares CASTAN's predicted DRAM
// pressure with the feature on and off for the NF where it matters most.
func BenchmarkAblationCacheModel(b *testing.B) {
	runAblation(b, "lpm-dl1", true, false)
}

func BenchmarkAblationRainbow(b *testing.B) {
	runAblation(b, "lb-chain", false, true)
}
