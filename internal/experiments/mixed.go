package experiments

import (
	"fmt"
	"strings"

	"castan/internal/parallel"
	"castan/internal/testbed"
	"castan/internal/workload"
)

// This file implements the experiment §5.5 leaves to future work: "a more
// realistic adversary can only inject a fraction of the overall traffic
// as part of a DDoS campaign". MixedSweep interleaves a CASTAN workload
// into background Zipfian traffic at increasing fractions and measures
// the damage per adversarial packet — the cost-benefit view from the
// attacker's side the paper asks for.

// MixPoint is one measurement of the sweep.
type MixPoint struct {
	// Fraction of packets that are adversarial, in [0,1].
	Fraction float64
	// MedianNS and P95NS summarize the latency of ALL traffic (victims
	// included — head-of-line blocking is the point).
	MedianNS float64
	P95NS    float64
	// ThroughputMpps is the max sustainable offered load.
	ThroughputMpps float64
}

// MixedResult is a full sweep for one NF.
type MixedResult struct {
	NF     string
	Points []MixPoint
}

// Render formats the sweep as a table.
func (r *MixedResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Adversarial-fraction sweep for %s (background: Zipfian)\n", r.NF)
	fmt.Fprintf(&b, "%10s %12s %12s %12s\n", "fraction", "median ns", "p95 ns", "Mpps")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%9.0f%% %12.0f %12.0f %12.2f\n", p.Fraction*100, p.MedianNS, p.P95NS, p.ThroughputMpps)
	}
	return b.String()
}

// MixWorkloads interleaves adversarial frames into background traffic at
// the given fraction, deterministically spreading them out (an attacker
// paces their packets; bursts would only strengthen the effect).
func MixWorkloads(background, adversarial *workload.Workload, fraction float64) *workload.Workload {
	if fraction <= 0 {
		return background
	}
	if fraction >= 1 {
		return adversarial
	}
	n := len(background.Frames)
	total := int(float64(n) / (1 - fraction))
	adv := total - n
	frames := make([][]byte, 0, total)
	bi, ai := 0, 0
	acc := 0.0
	for len(frames) < total && (bi < n || ai < adv) {
		acc += fraction
		if acc >= 1 && ai < adv {
			acc--
			frames = append(frames, adversarial.Frames[ai%len(adversarial.Frames)])
			ai++
		} else if bi < n {
			frames = append(frames, background.Frames[bi])
			bi++
		} else {
			frames = append(frames, adversarial.Frames[ai%len(adversarial.Frames)])
			ai++
		}
	}
	return workload.FromFrames(fmt.Sprintf("Mixed %.0f%%", fraction*100), frames)
}

// MixedSweep measures an NF under increasing adversarial fractions.
// Fractions default to 0, 1%, 5%, 10%, 25%, 50%, 100%.
func (c *Campaign) MixedSweep(nfName string, fractions []float64) (*MixedResult, error) {
	if fractions == nil {
		fractions = []float64{0, 0.01, 0.05, 0.10, 0.25, 0.50, 1}
	}
	prof := workload.ProfileFor(nfName)
	zipf, err := workload.Zipfian(prof, c.cfg.Packets, c.cfg.ZipfUniverse, c.cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	out, err := c.Castan(nfName)
	if err != nil {
		return nil, err
	}
	adv := workload.FromFrames("CASTAN", out.Frames)
	res := &MixedResult{NF: nfName}
	points, err := parallel.MapErr(c.cfg.Workers, len(fractions), func(i int) (MixPoint, error) {
		f := fractions[i]
		wl := MixWorkloads(zipf, adv, f)
		m, err := testbed.Measure(nfName, wl, c.opts)
		if err != nil {
			return MixPoint{}, fmt.Errorf("mixed %s @%.2f: %w", nfName, f, err)
		}
		return MixPoint{
			Fraction:       f,
			MedianNS:       m.Latency.Median(),
			P95NS:          m.Latency.Quantile(0.95),
			ThroughputMpps: m.ThroughputMpps,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	res.Points = points
	return res, nil
}

// DamagePerPacket summarizes the attacker's cost-benefit: extra p95
// latency (over the clean baseline) divided by the adversarial fraction.
// A value that *grows* as the fraction shrinks means small adversarial
// trickles are disproportionately effective.
func (r *MixedResult) DamagePerPacket() []float64 {
	if len(r.Points) == 0 {
		return nil
	}
	base := r.Points[0].P95NS
	var out []float64
	for _, p := range r.Points[1:] {
		if p.Fraction <= 0 {
			continue
		}
		out = append(out, (p.P95NS-base)/p.Fraction)
	}
	return out
}
