package experiments

import (
	"strings"
	"testing"

	"castan/internal/workload"
)

func TestMixWorkloadsFractions(t *testing.T) {
	bg := workload.UniRand(workload.ProfileLPM, 1000, 1)
	adv := workload.UniRandN(workload.ProfileLPM, 10, 2)

	if got := MixWorkloads(bg, adv, 0); got != bg {
		t.Error("fraction 0 should return background unchanged")
	}
	if got := MixWorkloads(bg, adv, 1); got != adv {
		t.Error("fraction 1 should return adversarial unchanged")
	}

	mixed := MixWorkloads(bg, adv, 0.25)
	total := len(mixed.Frames)
	advSet := map[string]bool{}
	for _, fr := range adv.Frames {
		advSet[string(fr)] = true
	}
	nAdv := 0
	for _, fr := range mixed.Frames {
		if advSet[string(fr)] {
			nAdv++
		}
	}
	frac := float64(nAdv) / float64(total)
	if frac < 0.22 || frac > 0.28 {
		t.Errorf("adversarial fraction = %.3f, want ~0.25", frac)
	}
	// Background packets must all survive.
	if total-nAdv != 1000 {
		t.Errorf("background packets = %d, want 1000", total-nAdv)
	}
	// Adversarial packets must be spread, not bunched at the end: the
	// first quarter of the stream should already contain some.
	early := 0
	for _, fr := range mixed.Frames[:total/4] {
		if advSet[string(fr)] {
			early++
		}
	}
	if early == 0 {
		t.Error("adversarial packets bunched at the end")
	}
}

func TestMixedSweepHeadOfLineBlocking(t *testing.T) {
	// §5.5's hypothesis: adversarial fractions raise tail latency for
	// everyone. Verified on the cheapest attackable NF.
	c := shared()
	res, err := c.MixedSweep("lpm-dl1", []float64{0, 0.25, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	clean, mixed, full := res.Points[0], res.Points[1], res.Points[2]
	if mixed.P95NS <= clean.P95NS {
		t.Errorf("25%% adversarial p95 %.0f not above clean %.0f", mixed.P95NS, clean.P95NS)
	}
	if full.MedianNS <= clean.MedianNS {
		t.Errorf("100%% adversarial median %.0f not above clean %.0f", full.MedianNS, clean.MedianNS)
	}
	if full.ThroughputMpps >= clean.ThroughputMpps {
		t.Errorf("100%% adversarial throughput %.2f not below clean %.2f",
			full.ThroughputMpps, clean.ThroughputMpps)
	}
	s := res.Render()
	for _, want := range []string{"lpm-dl1", "fraction", "25%"} {
		if !strings.Contains(s, want) {
			t.Errorf("render missing %q:\n%s", want, s)
		}
	}
	if dp := res.DamagePerPacket(); len(dp) != 2 {
		t.Errorf("DamagePerPacket = %v", dp)
	}
}
