package memsim

import (
	"castan/internal/budget"
	"castan/internal/obs"

	"testing"
)

func TestGeometryDerived(t *testing.T) {
	g := DefaultGeometry()
	if g.L3Bytes() != 128<<10 {
		t.Errorf("L3Bytes = %d, want 128KiB", g.L3Bytes())
	}
	if g.NumContentionSets() != 128 {
		t.Errorf("NumContentionSets = %d", g.NumContentionSets())
	}
	if g.L3Assoc() != 16 {
		t.Errorf("L3Assoc = %d", g.L3Assoc())
	}
	if s := g.String(); s == "" {
		t.Error("empty geometry string")
	}
}

func TestFirstAccessMissesThenHits(t *testing.T) {
	h := New(DefaultGeometry(), 1)
	lvl, cyc := h.Access(0x1000, 8, false)
	if lvl != DRAM || cyc != h.Geometry().LatDRAM {
		t.Errorf("cold access: %v/%d", lvl, cyc)
	}
	lvl, cyc = h.Access(0x1000, 8, false)
	if lvl != L1 || cyc != h.Geometry().LatL1 {
		t.Errorf("warm access: %v/%d", lvl, cyc)
	}
	if h.Stats.Accesses != 2 || h.Stats.DRAM != 1 || h.Stats.L1Hits != 1 {
		t.Errorf("counters = %+v", h.Stats)
	}
	h.ResetCounters()
	if h.Stats.Accesses != 0 {
		t.Error("ResetCounters failed")
	}
}

func TestSameLineSharesCache(t *testing.T) {
	h := New(DefaultGeometry(), 1)
	h.Access(0x1000, 4, false)
	lvl, _ := h.Access(0x1020, 4, false) // same 64B line
	if lvl != L1 {
		t.Errorf("same-line access = %v", lvl)
	}
	lvl, _ = h.Access(0x1040, 4, false) // next line
	if lvl != DRAM {
		t.Errorf("next-line access = %v", lvl)
	}
}

func TestLineCrossingAccess(t *testing.T) {
	h := New(DefaultGeometry(), 1)
	lvl, cyc := h.Access(0x103e, 4, false) // spans 0x1000 and 0x1040 lines
	if lvl != DRAM {
		t.Errorf("lvl = %v", lvl)
	}
	if cyc != 2*h.Geometry().LatDRAM {
		t.Errorf("cyc = %d, want two misses", cyc)
	}
	if h.Stats.Accesses != 2 {
		t.Errorf("accesses = %d", h.Stats.Accesses)
	}
}

func TestL1EvictionFallsToL2(t *testing.T) {
	g := DefaultGeometry()
	h := New(g, 1)
	// Fill one L1 set beyond its ways: addresses stride L1Sets*LineBytes
	// apart share an L1 set.
	stride := uint64(g.L1Sets * g.LineBytes)
	n := g.L1Ways + 2
	for i := 0; i < n; i++ {
		h.Access(uint64(i)*stride, 8, false)
	}
	// First address was evicted from L1 but should be in L2 (different L2
	// set indexing makes collision unlikely with so few lines).
	lvl, _ := h.Access(0, 8, false)
	if lvl != L2 {
		t.Errorf("evicted line served from %v, want L2", lvl)
	}
}

func TestInclusiveL3BackInvalidation(t *testing.T) {
	// Thrash one L3 contention set: find Assoc+1 addresses with the same
	// hidden set via the debug backdoor, then verify cyclic access misses
	// every time.
	g := DefaultGeometry()
	h := New(g, 42)
	target := h.DebugContentionSet(0)
	addrs := []uint64{0}
	for a := uint64(64); len(addrs) < g.L3Ways+1; a += 64 {
		if h.DebugContentionSet(a) == target {
			addrs = append(addrs, a)
		}
	}
	// Warm all.
	for _, a := range addrs {
		h.Access(a, 8, false)
	}
	// Cyclic passes must all go to DRAM (inclusive L3 back-invalidates L1).
	h.ResetCounters()
	for pass := 0; pass < 3; pass++ {
		for _, a := range addrs {
			h.Access(a, 8, false)
		}
	}
	if h.Stats.DRAM != h.Stats.Accesses {
		t.Errorf("thrash set: %d DRAM of %d accesses", h.Stats.DRAM, h.Stats.Accesses)
	}
	// One fewer address: everything fits, so no DRAM traffic once warm.
	h.Flush()
	fits := addrs[:g.L3Ways]
	for _, a := range fits {
		h.Access(a, 8, false)
	}
	h.ResetCounters()
	for pass := 0; pass < 3; pass++ {
		for _, a := range fits {
			h.Access(a, 8, false)
		}
	}
	if h.Stats.DRAM != 0 {
		t.Errorf("fitting set caused %d DRAM accesses", h.Stats.DRAM)
	}
}

func TestProbeTimeDetectsContention(t *testing.T) {
	g := DefaultGeometry()
	h := New(g, 7)
	target := h.DebugContentionSet(0)
	var inSet, offSet []uint64
	for a := uint64(0); len(inSet) < g.L3Ways+1 || len(offSet) < g.L3Ways+1; a += 64 {
		if h.DebugContentionSet(a) == target {
			if len(inSet) < g.L3Ways+1 {
				inSet = append(inSet, a)
			}
		} else if len(offSet) < g.L3Ways+1 {
			offSet = append(offSet, a)
		}
	}
	rounds := 3
	tIn := h.ProbeTime(inSet, rounds)
	tOff := h.ProbeTime(offSet, rounds)
	if tIn <= tOff*2 {
		t.Errorf("contended probe %d not clearly above uncontended %d", tIn, tOff)
	}
}

func TestRebootChangesMappingButNotClasses(t *testing.T) {
	g := DefaultGeometry()
	h := New(g, 3)
	// Collect a same-set pair within one page.
	target := h.DebugContentionSet(0)
	var buddy uint64
	for a := uint64(64); ; a += 64 {
		if h.DebugContentionSet(a) == target {
			buddy = a
			break
		}
	}
	// Across reboots the absolute set index may change, but 0 and buddy
	// must stay co-resident (the hidden hash is f(offset) xor g(page)).
	for boot := uint64(10); boot < 15; boot++ {
		h.Reboot(boot)
		if h.DebugContentionSet(0) != h.DebugContentionSet(buddy) {
			t.Fatalf("boot %d split the class", boot)
		}
	}
}

func TestDDIOInjectPacket(t *testing.T) {
	h := New(DefaultGeometry(), 5)
	h.InjectPacket(0x2000, 64)
	before := h.Stats
	lvl, _ := h.Access(0x2000, 8, false)
	if lvl == DRAM {
		t.Error("DDIO-injected header missed to DRAM")
	}
	if before.Accesses != 0 {
		t.Errorf("DDIO counted as NF accesses: %+v", before)
	}
}

func TestCyclesToNanos(t *testing.T) {
	h := New(DefaultGeometry(), 1)
	ns := h.CyclesToNanos(33)
	if ns < 9.9 || ns > 10.1 {
		t.Errorf("33 cycles at 3.3GHz = %g ns", ns)
	}
}

func TestLevelString(t *testing.T) {
	if L1.String() != "L1" || L2.String() != "L2" || L3.String() != "L3" || DRAM.String() != "DRAM" {
		t.Error("level names")
	}
}

func TestTinyGeometrySanity(t *testing.T) {
	g := TinyGeometry()
	h := New(g, 9)
	// Distinct lines spread over the tiny L3 still behave: cold miss then hit.
	lvl, _ := h.Access(0, 8, false)
	if lvl != DRAM {
		t.Error("cold")
	}
	lvl, _ = h.Access(0, 8, false)
	if lvl != L1 {
		t.Error("warm")
	}
}

func TestL2HitAfterL1Eviction(t *testing.T) {
	g := DefaultGeometry()
	h := New(g, 11)
	h.Access(0x5000, 8, false)
	// Evict 0x5000 from L1 by filling its set; L2 (more sets) keeps it.
	stride := uint64(g.L1Sets * g.LineBytes)
	for i := 1; i <= g.L1Ways; i++ {
		h.Access(0x5000+uint64(i)*stride*2+64, 8, false) // different L2 sets
	}
	h.ResetCounters()
	lvl, cyc := h.Access(0x5000, 8, false)
	if lvl == DRAM {
		t.Errorf("line lost entirely: %v", lvl)
	}
	if cyc == 0 {
		t.Error("zero cost")
	}
	if h.Stats.Accesses != 1 {
		t.Errorf("accesses = %d", h.Stats.Accesses)
	}
}

func TestCountersPartition(t *testing.T) {
	h := New(DefaultGeometry(), 13)
	rng := uint64(0)
	for i := 0; i < 500; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		h.Access(rng%(1<<20), 8, false)
	}
	s := h.Stats
	if s.L1Hits+s.L2Hits+s.L3Hits+s.DRAM != s.Accesses {
		t.Errorf("counters do not partition: %+v", s)
	}
}

func TestProbeBatchMatchesScalarProbes(t *testing.T) {
	sets := [][]uint64{
		{0, 64, 128, 192, 4096, 8192},
		{0x100000, 0x100040, 0x200000},
		nil,
		{0, 64, 128, 192, 4096, 8192}, // repeat: warm scratch reuse
	}
	mk := func() (*Hierarchy, *obs.Recorder, *budget.Meter) {
		rec := obs.New(obs.NewFakeClock(1))
		m := budget.New(1 << 40)
		h := New(DefaultGeometry(), 77)
		h.SetObs(rec)
		h.SetBudget(m.Stage("discover"))
		return h, rec, m
	}

	hs, recS, ms := mk()
	want := make([]uint64, len(sets))
	for i, s := range sets {
		want[i] = hs.ProbeTime(s, 2)
	}
	hb, recB, mb := mk()
	got := hb.ProbeBatch(sets, 2)

	for i := range sets {
		if got[i] != want[i] {
			t.Errorf("set %d: batch time %d != scalar time %d", i, got[i], want[i])
		}
	}
	if hb.Stats != (Counters{}) {
		t.Errorf("probe traffic leaked into Stats: %+v", hb.Stats)
	}
	for _, name := range []string{
		"memsim.l1_hits", "memsim.l2_hits", "memsim.l3_hits", "memsim.dram_misses", "memsim.l3_evictions",
		"memsim.probe_calls", "memsim.probe_line_reads",
	} {
		if b, s := recB.Counter(name).Value(), recS.Counter(name).Value(); b != s {
			t.Errorf("%s: batch %d != scalar %d", name, b, s)
		}
	}
	if bu, su := mb.Used("discover"), ms.Used("discover"); bu != su || bu == 0 {
		t.Errorf("budget ticks: batch %d, scalar %d", bu, su)
	}
}

func TestProbeTimeDeterministic(t *testing.T) {
	h := New(DefaultGeometry(), 21)
	addrs := []uint64{0, 64, 128, 192, 4096, 8192}
	a := h.ProbeTime(addrs, 3)
	b := h.ProbeTime(addrs, 3)
	if a != b {
		t.Errorf("probe not deterministic: %d vs %d", a, b)
	}
	if h.ProbeTime(nil, 3) != 0 {
		t.Error("empty probe should cost nothing")
	}
}
