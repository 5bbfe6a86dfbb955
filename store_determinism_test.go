package repro

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"castan/internal/castan"
	"castan/internal/memsim"
	"castan/internal/nf"
	"castan/internal/obs"
	"castan/internal/pcap"
	"castan/internal/store"
)

// The artifact store extends the determinism rule (DESIGN.md decisions 6
// and 11) across process boundaries: a warm store changes how much work a
// run does — discovery is skipped entirely — but never what it outputs,
// at any worker count.

func analyzeWithStore(t *testing.T, dir string, workers int) (*obs.Recorder, []byte) {
	t.Helper()
	inst, err := nf.New("lpm-dl1")
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New(obs.NewFakeClock(1))
	out, err := castan.Analyze(inst, memsim.New(memsim.DefaultGeometry(), 2018), castan.Config{
		NPackets:  12,
		MaxStates: 3000,
		Seed:      2018,
		Workers:   workers,
		Store:     st,
		Obs:       rec,
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
	return rec, raw
}

func TestStoreWarmRunDeterminismAcrossWorkers(t *testing.T) {
	dir := t.TempDir()
	recCold, refPCAP := analyzeWithStore(t, dir, 1)
	if v := recCold.Counter("castan.store.writes").Value(); v == 0 {
		t.Fatal("cold run persisted nothing")
	}
	if v := recCold.Counter("memsim.probe_line_reads").Value(); v == 0 {
		t.Fatal("cold run did not probe")
	}
	for _, w := range []int{1, 4, 8} {
		rec, raw := analyzeWithStore(t, dir, w)
		if !bytes.Equal(raw, refPCAP) {
			t.Errorf("warm W=%d: PCAP bytes differ from cold run", w)
		}
		if v := rec.Counter("castan.store.hits").Value(); v == 0 {
			t.Errorf("warm W=%d: no store hit", w)
		}
		if v := rec.Counter("castan.store.misses").Value(); v != 0 {
			t.Errorf("warm W=%d: %d store misses, want 0", w, v)
		}
		if v := rec.Counter("memsim.probe_line_reads").Value(); v != 0 {
			t.Errorf("warm W=%d: discovery still probed (%d line reads)", w, v)
		}
	}
}

// TestDiscoveryProbeBudgetRegression pins the batched-probing win: before
// batched probes, a cold lpm-dl1 discovery at this configuration read
// 16,429,074 cache lines; the rewritten discovery reads under 1.5M. The
// ceiling here is 10x below the old cost with ~10% headroom, so any
// change that quietly reverts the batching fails this test (and the CI
// perf gate) rather than landing.
func TestDiscoveryProbeBudgetRegression(t *testing.T) {
	inst, err := nf.New("lpm-dl1")
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New(obs.NewFakeClock(1))
	_, err = castan.Analyze(inst, memsim.New(memsim.DefaultGeometry(), 2018), castan.Config{
		NPackets:  12,
		MaxStates: 3000,
		Seed:      2018,
		Obs:       rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	reads := rec.Counter("memsim.probe_line_reads").Value()
	if reads == 0 {
		t.Fatal("discovery did not probe")
	}
	const ceiling = 1_640_000 // 16,429,074 / 10, rounded down
	if reads > ceiling {
		t.Errorf("lpm-dl1 discovery read %d cache lines, want <= %d (10x under the pre-batching 16,429,074)", reads, ceiling)
	}
	t.Logf("lpm-dl1 discovery: %d probe line reads", reads)
}
