package testbed

import (
	"testing"

	"castan/internal/nf"
	"castan/internal/stats"
	"castan/internal/workload"
)

func small() Options {
	return Options{Seed: 5, MeasureCap: 512}
}

func measure(t *testing.T, nfName string, wl *workload.Workload) *Measurement {
	t.Helper()
	m, err := Measure(nfName, wl, small())
	if err != nil {
		t.Fatalf("Measure(%s, %s): %v", nfName, wl.Name, err)
	}
	return m
}

func TestNOPBaseline(t *testing.T) {
	m, err := MeasureNOP(small())
	if err != nil {
		t.Fatal(err)
	}
	med := m.Latency.Median()
	if med < 4000 || med > 4800 {
		t.Errorf("NOP median latency = %.0f ns, want ~4300", med)
	}
	if m.ThroughputMpps < 2 || m.ThroughputMpps > 6 {
		t.Errorf("NOP throughput = %.2f Mpps", m.ThroughputMpps)
	}
	if m.Instrs.Median() > 20 {
		t.Errorf("NOP instrs = %.0f", m.Instrs.Median())
	}
}

func TestLPMDL1WorkloadOrdering(t *testing.T) {
	one := measure(t, "lpm-dl1", workload.OnePacket(workload.ProfileLPM))
	zipf, err := workload.Zipfian(workload.ProfileLPM, 8192, 1024, 3)
	if err != nil {
		t.Fatal(err)
	}
	z := measure(t, "lpm-dl1", zipf)
	u := measure(t, "lpm-dl1", workload.UniRand(workload.ProfileLPM, 8192, 4))

	// The Fig. 4 ordering: 1 Packet ≈ Zipfian < UniRand.
	if z.Latency.Median() > one.Latency.Median()*1.05 {
		t.Errorf("Zipfian median %.0f should be near 1 Packet %.0f",
			z.Latency.Median(), one.Latency.Median())
	}
	if u.Latency.Median() < z.Latency.Median()+20 {
		t.Errorf("UniRand median %.0f not above Zipfian %.0f",
			u.Latency.Median(), z.Latency.Median())
	}
	// UniRand pays with cache misses, not instructions.
	if u.Instrs.Median() != z.Instrs.Median() {
		t.Errorf("instr medians differ: %v vs %v", u.Instrs.Median(), z.Instrs.Median())
	}
	if u.L3Misses.Median() < z.L3Misses.Median() {
		t.Errorf("UniRand misses %.0f < Zipfian %.0f", u.L3Misses.Median(), z.L3Misses.Median())
	}
	// And throughput drops under UniRand.
	if u.ThroughputMpps >= z.ThroughputMpps {
		t.Errorf("UniRand throughput %.2f not below Zipfian %.2f",
			u.ThroughputMpps, z.ThroughputMpps)
	}
}

func TestUBTreeSkewWorkloadHurts(t *testing.T) {
	// The Manual skew workload must beat a UniRandN workload of the same
	// flow count on the unbalanced tree.
	manual := workload.FromFrames("Manual", manualFrames(t, "nat-ubtree", 50))
	m := measure(t, "nat-ubtree", manual)
	urn := measure(t, "nat-ubtree", workload.UniRandN(workload.ProfileNAT, 50, 9))
	if m.Instrs.Median() <= urn.Instrs.Median() {
		t.Errorf("skew instrs %.0f not above unirand-50 %.0f",
			m.Instrs.Median(), urn.Instrs.Median())
	}
	if m.Latency.Median() <= urn.Latency.Median() {
		t.Errorf("skew latency %.0f not above unirand-50 %.0f",
			m.Latency.Median(), urn.Latency.Median())
	}
	// The red-black tree shrugs the same sequence off.
	rbSkew := workload.FromFrames("Manual", manualFrames(t, "nat-ubtree", 50))
	rb := measure(t, "nat-rbtree", rbSkew)
	if rb.Instrs.Median() >= m.Instrs.Median() {
		t.Errorf("rbtree instrs %.0f not below ubtree %.0f",
			rb.Instrs.Median(), m.Instrs.Median())
	}
}

func manualFrames(t *testing.T, nfName string, n int) [][]byte {
	t.Helper()
	inst, err := nf.New(nfName)
	if err != nil {
		t.Fatal(err)
	}
	return inst.Manual(n)
}

func TestMedianDeviation(t *testing.T) {
	nop, err := MeasureNOP(small())
	if err != nil {
		t.Fatal(err)
	}
	one := measure(t, "lpm-trie", workload.OnePacket(workload.ProfileLPM))
	dev := one.MedianDeviation(nop)
	if dev <= 0 || dev > 1500 {
		t.Errorf("trie deviation from NOP = %.0f ns", dev)
	}
}

func TestEmptyWorkloadRejected(t *testing.T) {
	if _, err := Measure("nop", &workload.Workload{Name: "x"}, small()); err == nil {
		t.Error("empty workload accepted")
	}
}

// TestMaxThroughputMatchesReference holds the early-exit bisection to
// the one that runs every rate to the end, bit for bit, on service
// times that are constant, patterned, heavy-tailed and longer than the
// 20 000 simulated arrivals, at two queue depths.
func TestMaxThroughputMatchesReference(t *testing.T) {
	rng := stats.NewRNG(57)
	for _, n := range []int{1, 2000, 8192, 25000} {
		for shape := 0; shape < 3; shape++ {
			service := make([]float64, n)
			for i := range service {
				switch shape {
				case 0:
					service[i] = 250
				case 1:
					service[i] = 280 + float64(i*7919%211)
				default:
					service[i] = 100 + 5000*float64(rng.Uint64()%1000)/1000*float64(rng.Uint64()%1000)/1000
				}
			}
			for _, depth := range []int{16, 256} {
				if got, want := maxThroughput(service, depth), refMaxThroughput(service, depth); got != want {
					t.Errorf("n %d shape %d depth %d: %v Mpps, reference %v", n, shape, depth, got, want)
				}
			}
		}
	}
}

func TestThroughputMonotoneInService(t *testing.T) {
	fast := make([]float64, 2000)
	slow := make([]float64, 2000)
	for i := range fast {
		fast[i] = 200
		slow[i] = 400
	}
	tf := maxThroughput(fast, 256)
	ts := maxThroughput(slow, 256)
	if tf <= ts {
		t.Errorf("throughput not monotone: fast %.2f <= slow %.2f", tf, ts)
	}
	// Deterministic service at 200ns supports ~5 Mpps.
	if tf < 4 || tf > 6 {
		t.Errorf("200ns service -> %.2f Mpps, want ~5", tf)
	}
}
