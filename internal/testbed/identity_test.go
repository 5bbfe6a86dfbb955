package testbed

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"castan/internal/nf"
	"castan/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

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
