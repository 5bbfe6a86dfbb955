package experiments

import (
	"strings"
	"sync"
	"testing"
)

// shared is the one campaign every test in this package reads: the zero
// Config, the evaluation results/ is generated at, so each shape
// assertion checks the published tables and figures. Analyses and
// measurements are memoized in it, so each NF is analyzed once per run.
var shared = sync.OnceValue(func() *Campaign { return NewCampaign(Config{}) })

func median(t *testing.T, c *Campaign, nfName, wl string) float64 {
	t.Helper()
	ms, err := c.MeasureAll(nfName)
	if err != nil {
		t.Fatalf("MeasureAll(%s): %v", nfName, err)
	}
	m, ok := ms[wl]
	if !ok {
		t.Fatalf("no workload %q for %s", wl, nfName)
	}
	return m.Latency.Median()
}

func TestFig4ShapeDL1(t *testing.T) {
	// CASTAN (few packets) ≈ UniRand (thousands) ≫ Zipfian ≈ 1 Packet.
	c := shared()
	one := median(t, c, "lpm-dl1", "1 Packet")
	zipf := median(t, c, "lpm-dl1", "Zipfian")
	uni := median(t, c, "lpm-dl1", "UniRand")
	urc := median(t, c, "lpm-dl1", "UniRand CASTAN")
	cas := median(t, c, "lpm-dl1", "CASTAN")
	if zipf > one*1.05 {
		t.Errorf("Zipfian %.0f should ride the 1-Packet floor %.0f", zipf, one)
	}
	if urc > one*1.05 {
		t.Errorf("UniRand-CASTAN %.0f should ride the floor %.0f", urc, one)
	}
	if cas < zipf+25 {
		t.Errorf("CASTAN %.0f not clearly above Zipfian %.0f", cas, zipf)
	}
	if cas < uni*0.9 {
		t.Errorf("CASTAN %.0f should match UniRand %.0f with 400x fewer packets", cas, uni)
	}
	// Fig 5's µarch confirmation: same instructions, more L3 misses.
	ms, _ := c.MeasureAll("lpm-dl1")
	if ms["CASTAN"].Instrs.Median() != ms["Zipfian"].Instrs.Median() {
		t.Errorf("instr medians differ: CASTAN %.0f vs Zipfian %.0f",
			ms["CASTAN"].Instrs.Median(), ms["Zipfian"].Instrs.Median())
	}
	if ms["CASTAN"].L3Misses.Median() <= ms["Zipfian"].L3Misses.Median() {
		t.Errorf("CASTAN misses %.0f not above Zipfian %.0f",
			ms["CASTAN"].L3Misses.Median(), ms["Zipfian"].L3Misses.Median())
	}
	// Table 1's headline: CASTAN cuts throughput vs Zipfian.
	if ms["CASTAN"].ThroughputMpps >= ms["Zipfian"].ThroughputMpps {
		t.Errorf("CASTAN throughput %.2f not below Zipfian %.2f",
			ms["CASTAN"].ThroughputMpps, ms["Zipfian"].ThroughputMpps)
	}
}

func TestFig6ShapeDL2(t *testing.T) {
	// The small first stage defeats the contention attack: CASTAN rides
	// the floor with everything except UniRand.
	c := shared()
	out, err := c.Castan("lpm-dl2")
	if err != nil {
		t.Fatal(err)
	}
	if out.ContentionSetsFound != 0 {
		t.Errorf("dl2 discovery found %d sets, want 0", out.ContentionSetsFound)
	}
	cas := median(t, c, "lpm-dl2", "CASTAN")
	urc := median(t, c, "lpm-dl2", "UniRand CASTAN")
	uni := median(t, c, "lpm-dl2", "UniRand")
	if cas > urc*1.05 {
		t.Errorf("CASTAN %.0f should match UniRand-CASTAN %.0f on dl2", cas, urc)
	}
	if uni < cas {
		t.Errorf("UniRand %.0f should still exceed CASTAN %.0f (large flow count)", uni, cas)
	}
}

func TestFig7ShapeTrie(t *testing.T) {
	// CASTAN ≈ Manual (deep routes) on instructions per packet.
	c := shared()
	ms, err := c.MeasureAll("lpm-trie")
	if err != nil {
		t.Fatal(err)
	}
	cas := ms["CASTAN"].Instrs.Median()
	man := ms["Manual"].Instrs.Median()
	urc := ms["UniRand CASTAN"].Instrs.Median()
	if cas < man*0.9 {
		t.Errorf("CASTAN instrs %.0f well below Manual %.0f", cas, man)
	}
	if cas < urc {
		t.Errorf("CASTAN instrs %.0f below random same-size %.0f", cas, urc)
	}
}

func TestFig9ShapeNATUBTree(t *testing.T) {
	// The skew attack: CASTAN ≈ Manual, both above the same-size random
	// workload (which builds a balanced-ish tree).
	c := shared()
	ms, err := c.MeasureAll("nat-ubtree")
	if err != nil {
		t.Fatal(err)
	}
	cas := ms["CASTAN"].Instrs.Median()
	man := ms["Manual"].Instrs.Median()
	urc := ms["UniRand CASTAN"].Instrs.Median()
	if cas < urc+20 {
		t.Errorf("CASTAN instrs %.0f not above random same-size %.0f", cas, urc)
	}
	if cas < man*0.75 {
		t.Errorf("CASTAN instrs %.0f far below Manual %.0f", cas, man)
	}
}

func TestFig11ShapeNATRBTree(t *testing.T) {
	// The red-black tree thwarts skew: latency ordered by flow count, so
	// the small CASTAN workload sits at the bottom.
	c := shared()
	cas := median(t, c, "nat-rbtree", "CASTAN")
	zipf := median(t, c, "nat-rbtree", "Zipfian")
	uni := median(t, c, "nat-rbtree", "UniRand")
	if cas > zipf {
		t.Errorf("CASTAN %.0f above Zipfian %.0f on the red-black tree", cas, zipf)
	}
	if zipf > uni {
		t.Errorf("Zipfian %.0f above UniRand %.0f: flow-count ordering broken", zipf, uni)
	}
}

func TestFig12ShapeLBChain(t *testing.T) {
	// Persistent collisions: CASTAN above the same-size random workload.
	c := shared()
	out, err := c.Castan("lb-chain")
	if err != nil {
		t.Fatal(err)
	}
	if out.HavocsReconciled < out.HavocsTotal {
		t.Errorf("lb-chain reconciliation incomplete: %d/%d", out.HavocsReconciled, out.HavocsTotal)
	}
	ms, err := c.MeasureAll("lb-chain")
	if err != nil {
		t.Fatal(err)
	}
	if ms["CASTAN"].Instrs.Median() <= ms["UniRand CASTAN"].Instrs.Median() {
		t.Errorf("CASTAN instrs %.0f not above same-size random %.0f",
			ms["CASTAN"].Instrs.Median(), ms["UniRand CASTAN"].Instrs.Median())
	}
}

func TestFig14ShapeNATChain(t *testing.T) {
	// The NAT's two related keys defeat full reconciliation: CASTAN stays
	// well below UniRand.
	c := shared()
	out, err := c.Castan("nat-chain")
	if err != nil {
		t.Fatal(err)
	}
	if out.HavocsReconciled >= out.HavocsTotal {
		t.Errorf("nat-chain fully reconciled (%d/%d); the paper's failure mode vanished",
			out.HavocsReconciled, out.HavocsTotal)
	}
	cas := median(t, c, "nat-chain", "CASTAN")
	uni := median(t, c, "nat-chain", "UniRand")
	if cas > uni {
		t.Errorf("CASTAN %.0f above UniRand %.0f despite failed reconciliation", cas, uni)
	}
}

func TestFig13ShapeLBRing(t *testing.T) {
	// Cache contention dominates: CASTAN's misses far above the same-size
	// random workload's.
	c := shared()
	ms, err := c.MeasureAll("lb-ring")
	if err != nil {
		t.Fatal(err)
	}
	if ms["CASTAN"].L3Misses.Median() <= ms["UniRand CASTAN"].L3Misses.Median() {
		t.Errorf("CASTAN misses %.0f not above same-size random %.0f",
			ms["CASTAN"].L3Misses.Median(), ms["UniRand CASTAN"].L3Misses.Median())
	}
	if ms["CASTAN"].Latency.Median() <= ms["UniRand CASTAN"].Latency.Median() {
		t.Errorf("CASTAN latency %.0f not above same-size random %.0f",
			ms["CASTAN"].Latency.Median(), ms["UniRand CASTAN"].Latency.Median())
	}
}

func TestFig15ShapeNATRing(t *testing.T) {
	// Only the first of each key pair reconciles, yet the forward ring's
	// contention alone lifts CASTAN above the typical workload.
	c := shared()
	out, err := c.Castan("nat-ring")
	if err != nil {
		t.Fatal(err)
	}
	if out.HavocsReconciled == 0 || out.HavocsReconciled >= out.HavocsTotal {
		t.Errorf("nat-ring reconciled %d/%d havocs, want some but not all",
			out.HavocsReconciled, out.HavocsTotal)
	}
	ms, err := c.MeasureAll("nat-ring")
	if err != nil {
		t.Fatal(err)
	}
	if ms["CASTAN"].L3Misses.Median() <= ms["UniRand CASTAN"].L3Misses.Median() {
		t.Errorf("CASTAN misses %.0f not above same-size random %.0f",
			ms["CASTAN"].L3Misses.Median(), ms["UniRand CASTAN"].L3Misses.Median())
	}
	if ms["CASTAN"].Latency.Median() <= ms["Zipfian"].Latency.Median() {
		t.Errorf("CASTAN latency %.0f not above Zipfian %.0f",
			ms["CASTAN"].Latency.Median(), ms["Zipfian"].Latency.Median())
	}
}

func TestTablesRender(t *testing.T) {
	c := shared()
	nfs := []string{"lpm-dl1", "lpm-dl2"}
	t4, err := c.Table4(nfs)
	if err != nil {
		t.Fatal(err)
	}
	s := t4.Render()
	for _, want := range []string{"Table 4", "lpm-dl1", "# Packets"} {
		if !strings.Contains(s, want) {
			t.Errorf("table 4 render missing %q:\n%s", want, s)
		}
	}
	for _, build := range []func([]string) (*Table, error){c.Table1, c.Table2, c.Table3, c.Table5} {
		tbl, err := build(nfs)
		if err != nil {
			t.Fatal(err)
		}
		if len(tbl.Rows) == 0 || len(tbl.Columns) == 0 {
			t.Errorf("table %d empty", tbl.ID)
		}
	}
}

func TestFigureRenderAndIDs(t *testing.T) {
	ids := FigureIDs()
	if len(ids) != 12 || ids[0] != 4 || ids[len(ids)-1] != 15 {
		t.Fatalf("FigureIDs = %v", ids)
	}
	if FigureNF(4) != "lpm-dl1" || FigureNF(15) != "nat-ring" {
		t.Error("figure NF mapping broken")
	}
	c := shared()
	fig, err := c.Figure(6)
	if err != nil {
		t.Fatal(err)
	}
	s := fig.Render()
	for _, want := range []string{"Figure 6", "CASTAN", "UniRand", "latency"} {
		if !strings.Contains(s, want) {
			t.Errorf("figure render missing %q", want)
		}
	}
	if _, err := c.Figure(99); err == nil {
		t.Error("bogus figure accepted")
	}
}
