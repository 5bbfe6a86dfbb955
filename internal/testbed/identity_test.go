package testbed

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"castan/internal/nf"
	"castan/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestMeasureMatchesReference holds the two-stage Measure to the single
// loop it replaced (refMeasure) on every catalog NF under uniform and
// Zipfian traffic: every sample of every CDF, and the throughput. The
// shapes put the warm-up/measure boundary and the end of the run on a
// chunk edge and one packet either side of it; the longest wraps the
// chunk ring.
func TestMeasureMatchesReference(t *testing.T) {
	const c, seed = chunkPackets, 2018
	shapes := []struct{ frames, measure int }{
		{1, 1}, {1, c - 2}, {1, c - 1}, {1, c},
		{c - 1, 1}, {c - 1, c + 2},
		{c, c},
		{c + 1, c - 2}, {c + 1, c - 1},
		{3*c + 5, c - 5}, {3*c + 5, 3*c + 5},
	}
	for _, name := range nf.Names {
		prof := workload.ProfileFor(name)
		for _, sh := range shapes {
			zipf, err := workload.Zipfian(prof, sh.frames, 256, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, wl := range []*workload.Workload{workload.UniRand(prof, sh.frames, seed), zipf} {
				opt := Options{Seed: seed, MeasureCap: sh.measure}
				got, err := Measure(name, wl, opt)
				if err != nil {
					t.Fatalf("Measure(%s, %s): %v", name, wl.Name, err)
				}
				want, err := refMeasure(name, wl, opt)
				if err != nil {
					t.Fatalf("refMeasure(%s, %s): %v", name, wl.Name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s, %d frames, %d measured: Measure differs from the single loop: median cycles %v vs %v, mean misses %v vs %v, %v vs %v Mpps",
						name, wl.Name, sh.frames, sh.measure, got.Cycles.Median(), want.Cycles.Median(),
						got.L3Misses.Mean(), want.L3Misses.Mean(), got.ThroughputMpps, want.ThroughputMpps)
				}
			}
		}
	}
}

// TestMeasureDigestPinned pins what Measure simulates — the medians the
// figures and tables are made of, printed exactly — for every catalog NF
// under uniform and Zipfian traffic. The golden was recorded before the
// simulator and interpreter were made cheaper (PR 19) and must only ever
// be regenerated by a change that means to move a simulated cycle: host
// speed work leaves it alone, which is the property the repository
// benchmark calls testbed.sim_digest.
func TestMeasureDigestPinned(t *testing.T) {
	const packets, universe, seed = 2048, 256, 2018
	var b strings.Builder
	for _, name := range nf.Names {
		prof := workload.ProfileFor(name)
		zipf, err := workload.Zipfian(prof, packets, universe, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, wl := range []*workload.Workload{workload.UniRand(prof, packets, seed), zipf} {
			m, err := Measure(name, wl, Options{Seed: seed, MeasureCap: 1024})
			if err != nil {
				t.Fatalf("Measure(%s, %s): %v", name, wl.Name, err)
			}
			// Medians are what the figures plot; the means move if any
			// single packet's cycle, instruction or miss count does.
			fmt.Fprintf(&b, "%s/%s latency_ns=%v cycles=%v instrs=%v l3_misses=%v mpps=%v mean_cycles=%v mean_instrs=%v mean_l3_misses=%v\n",
				name, wl.Name, m.Latency.Median(), m.Cycles.Median(), m.Instrs.Median(), m.L3Misses.Median(),
				m.ThroughputMpps, m.Cycles.Mean(), m.Instrs.Mean(), m.L3Misses.Mean())
		}
	}
	const golden = "testdata/measure_digest.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("simulated results moved, first at line %d:\n got %s\nwant %s", i+1, gl[i], wl[min(i, len(wl)-1)])
			}
		}
		t.Fatalf("simulated results moved: %d lines, golden has %d", len(gl), len(wl))
	}
}
