package castan

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"castan/internal/memsim"
	"castan/internal/nf"
	"castan/internal/packet"
)

// testTables is the one table cache this package's tests share: many of
// them analyze the same hash NFs, and a table is the same whichever run
// builds it. The tests about what a run records when nothing is shared
// (store_test.go, TestAnalyzeTelemetryIgnoresProcessHistory) pass none.
var testTables TableCache

func analyze(t *testing.T, name string, cfg Config) *Output {
	t.Helper()
	cfg.Tables = &testTables
	inst, err := nf.New(name)
	if err != nil {
		t.Fatal(err)
	}
	hier := memsim.New(memsim.DefaultGeometry(), 2024)
	out, err := Analyze(inst, hier, cfg)
	if err != nil {
		t.Fatalf("Analyze(%s): %v", name, err)
	}
	if len(out.Frames) != cfg.NPackets && cfg.NPackets > 0 {
		t.Fatalf("frames = %d, want %d", len(out.Frames), cfg.NPackets)
	}
	for i, fr := range out.Frames {
		if _, err := packet.Parse(fr); err != nil {
			t.Fatalf("frame %d does not parse: %v", i, err)
		}
	}
	return out
}

func TestAnalyzeLPMDL1FindsContention(t *testing.T) {
	out := analyze(t, "lpm-dl1", Config{NPackets: 20, MaxStates: 3000, Seed: 1})
	if out.ContentionSetsFound == 0 {
		t.Fatal("no contention sets discovered over the 16MiB table")
	}
	geo := memsim.DefaultGeometry()
	if out.ExpectDRAM < uint64(geo.L3Ways) {
		t.Errorf("ExpectDRAM = %d, want >= α=%d", out.ExpectDRAM, geo.L3Ways)
	}
	// Ground truth: the packets' table lines must pile into few hidden
	// sets, exceeding associativity in at least one.
	hier := memsim.New(geo, 2024) // same machine seed as analyze()
	tableBase := findRegion(t, "lpm-dl1", "dl1-table")
	counts := map[int]int{}
	for _, fr := range out.Frames {
		p, err := packet.Parse(fr)
		if err != nil {
			t.Fatal(err)
		}
		line := (tableBase + uint64(p.IP.Dst>>8)) &^ 63
		counts[hier.DebugContentionSet(line)]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max <= geo.L3Ways {
		t.Errorf("largest same-set pile = %d, want > α=%d (counts %v)", max, geo.L3Ways, counts)
	}
}

func findRegion(t *testing.T, nfName, region string) uint64 {
	t.Helper()
	inst, err := nf.New(nfName)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range inst.AttackRegions {
		if r.Name == region {
			return r.Addr
		}
	}
	t.Fatalf("no region %s", region)
	return 0
}

func TestAnalyzeLPMDL2FindsNothing(t *testing.T) {
	// The two-stage first table is too small for the sampled discovery
	// pool to exceed associativity anywhere: the paper's robustness result.
	out := analyze(t, "lpm-dl2", Config{NPackets: 10, MaxStates: 1500, Seed: 1})
	if out.ContentionSetsFound != 0 {
		t.Errorf("ContentionSetsFound = %d, want 0 for the small table", out.ContentionSetsFound)
	}
}

func TestAnalyzeTrieWalksDeep(t *testing.T) {
	out := analyze(t, "lpm-trie", Config{NPackets: 10, MaxStates: 2500, Seed: 1})
	// The synthesized workload must be comparable to the Manual workload
	// (deep trie walks): validate by replaying both.
	gotInstrs, err := Validate("lpm-trie", out.Frames)
	if err != nil {
		t.Fatal(err)
	}
	inst, _ := nf.New("lpm-trie")
	manInstrs, err := Validate("lpm-trie", inst.Manual(10))
	if err != nil {
		t.Fatal(err)
	}
	if float64(gotInstrs) < 0.9*float64(manInstrs) {
		t.Errorf("CASTAN trie workload %d instrs vs manual %d", gotInstrs, manInstrs)
	}
}

func TestAnalyzeLBChainCollides(t *testing.T) {
	out := analyze(t, "lb-chain", Config{NPackets: 12, MaxStates: 4000, Seed: 1})
	if out.HavocsTotal == 0 {
		t.Fatal("no havocs recorded for a hash-table NF")
	}
	if out.HavocsReconciled == 0 {
		t.Fatal("no havocs reconciled: rainbow stage failed entirely")
	}
	// Count bucket collisions among the reconciled frames.
	buckets := map[uint64]int{}
	distinct := map[packet.FiveTuple]bool{}
	for _, fr := range out.Frames {
		p, err := packet.Parse(fr)
		if err != nil {
			t.Fatal(err)
		}
		distinct[p.Tuple()] = true
		buckets[nf.ChainBucketOf(p.Tuple())]++
	}
	max := 0
	for _, c := range buckets {
		if c > max {
			max = c
		}
	}
	if max < out.HavocsReconciled/2 || max < 2 {
		t.Errorf("largest real bucket pile = %d of %d packets (reconciled %d/%d)",
			max, len(out.Frames), out.HavocsReconciled, out.HavocsTotal)
	}
	if len(distinct) < 2 {
		t.Error("all frames identical: no flow diversity")
	}
}

func TestAnalyzeNATChainReconciliationPartial(t *testing.T) {
	out := analyze(t, "nat-chain", Config{NPackets: 8, MaxStates: 4000, Seed: 1})
	if out.HavocsTotal == 0 {
		t.Fatal("no havocs for NAT chain")
	}
	// The NAT's two related keys per flow defeat full reconciliation
	// (§5.4): some havocs must remain unreconciled.
	if out.HavocsReconciled >= out.HavocsTotal {
		t.Errorf("all %d havocs reconciled; expected partial failure", out.HavocsTotal)
	}
}

func TestValidateRunsFrames(t *testing.T) {
	inst, err := nf.New("nop")
	if err != nil {
		t.Fatal(err)
	}
	_ = inst
	n, err := Validate("nop", [][]byte{packet.Build(packet.Spec{SrcIP: 1, DstIP: 2})})
	if err != nil || n == 0 {
		t.Errorf("Validate = %d, %v", n, err)
	}
}

func TestReportRoundTrip(t *testing.T) {
	out := analyze(t, "lpm-dl2", Config{NPackets: 6, MaxStates: 1500, Seed: 5})
	var buf bytes.Buffer
	if err := out.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	rep, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NF != "lpm-dl2" || len(rep.Packets) != 6 {
		t.Fatalf("report shape: %+v", rep)
	}
	for i, p := range rep.Packets {
		if p.Index != i {
			t.Errorf("packet %d index %d", i, p.Index)
		}
		if p.Flow == "" {
			t.Errorf("packet %d missing flow", i)
		}
	}
	if rep.StatesExplored == 0 || rep.AnalysisSeconds <= 0 {
		t.Error("effort fields not populated")
	}
	path := filepath.Join(t.TempDir(), "report.json")
	if err := out.WriteReportFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadReport(strings.NewReader("{")); err == nil {
		t.Error("truncated report accepted")
	}
}

func TestAblationCacheModelMatters(t *testing.T) {
	// Without the cache model, lpm-dl1's workload loses its contention:
	// the predicted DRAM pressure collapses.
	on := analyze(t, "lpm-dl1", Config{NPackets: 20, MaxStates: 3000, Seed: 1})
	off := analyze(t, "lpm-dl1", Config{NPackets: 20, MaxStates: 3000, Seed: 1, NoCacheModel: true})
	if off.ContentionSetsFound != 0 {
		t.Errorf("ablated run discovered %d sets", off.ContentionSetsFound)
	}
	if on.ExpectDRAM <= off.ExpectDRAM {
		t.Errorf("cache model did not raise predicted DRAM: on=%d off=%d", on.ExpectDRAM, off.ExpectDRAM)
	}
}

func TestAblationRainbowMatters(t *testing.T) {
	// Without rainbow reconciliation, the lb-chain workload's symbolic
	// collisions never become real bucket collisions.
	off := analyze(t, "lb-chain", Config{NPackets: 10, MaxStates: 4000, Seed: 1, NoRainbow: true})
	if off.HavocsReconciled != 0 {
		t.Fatalf("NoRainbow but %d reconciled", off.HavocsReconciled)
	}
	buckets := map[uint64]int{}
	for _, fr := range off.Frames {
		p, err := packet.Parse(fr)
		if err != nil {
			t.Fatal(err)
		}
		buckets[nf.ChainBucketOf(p.Tuple())]++
	}
	max := 0
	for _, c := range buckets {
		if c > max {
			max = c
		}
	}
	if max > 4 {
		t.Errorf("unreconciled workload still piles %d into one bucket (lucky?)", max)
	}
}

// TestAnalyzeWorkerCountInvariant asserts the end-to-end determinism
// contract: the same seed produces byte-identical frames, the same
// explored-state count, and the same reconciliation outcome at every
// worker count. lb-chain exercises all parallel stages (discovery sweep,
// rainbow build).
func TestAnalyzeWorkerCountInvariant(t *testing.T) {
	run := func(workers int) *Output {
		return analyze(t, "lb-chain", Config{NPackets: 12, MaxStates: 4000, Seed: 1, Workers: workers})
	}
	ref := run(1)
	for _, w := range []int{4, 8} {
		out := run(w)
		if out.StatesExplored != ref.StatesExplored {
			t.Errorf("w=%d: %d states explored, want %d", w, out.StatesExplored, ref.StatesExplored)
		}
		if out.HavocsReconciled != ref.HavocsReconciled || out.HavocsTotal != ref.HavocsTotal {
			t.Errorf("w=%d: havocs %d/%d, want %d/%d", w,
				out.HavocsReconciled, out.HavocsTotal, ref.HavocsReconciled, ref.HavocsTotal)
		}
		if out.ContentionSetsFound != ref.ContentionSetsFound {
			t.Errorf("w=%d: %d contention sets, want %d", w, out.ContentionSetsFound, ref.ContentionSetsFound)
		}
		if len(out.Frames) != len(ref.Frames) {
			t.Fatalf("w=%d: %d frames, want %d", w, len(out.Frames), len(ref.Frames))
		}
		for i := range ref.Frames {
			if !bytes.Equal(out.Frames[i], ref.Frames[i]) {
				t.Fatalf("w=%d: frame %d differs:\n got %x\nwant %x", w, i, out.Frames[i], ref.Frames[i])
			}
		}
	}
}
