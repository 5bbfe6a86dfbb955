package cachemodel

import (
	"bytes"
	"errors"
	"slices"
	"sync/atomic"
	"testing"

	"castan/internal/memsim"
)

// pool returns n line-aligned addresses starting at base.
func pool(base uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = base + uint64(i)*64
	}
	return out
}

func tinyConfig(p []uint64) DiscoverConfig {
	g := memsim.TinyGeometry()
	return DiscoverConfig{
		Pool:      p,
		Assoc:     g.L3Ways,
		LineBytes: g.LineBytes,
		LatL3:     g.LatL3,
		LatDRAM:   g.LatDRAM,
		MaxSets:   2,
		Seed:      1,
	}
}

func TestDiscoverTiny(t *testing.T) {
	g := memsim.TinyGeometry()
	h := memsim.New(g, 11)
	p := pool(0, 64) // 64 lines over 4 contention sets: ~16 per set
	m, err := Discover(h, tinyConfig(p))
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	if len(m.Sets) == 0 {
		t.Fatal("no sets")
	}
	for si, s := range m.Sets {
		if len(s.Addrs) < g.L3Ways+1 {
			t.Errorf("set %d has only %d members", si, len(s.Addrs))
		}
		// Ground truth: every member must map to the same hidden set.
		want := h.DebugContentionSet(s.Addrs[0])
		for _, a := range s.Addrs {
			if h.DebugContentionSet(a) != want {
				t.Errorf("set %d member %#x maps to %d, want %d",
					si, a, h.DebugContentionSet(a), want)
			}
		}
		// And the model's index must agree with itself.
		for _, a := range s.Addrs {
			if m.SetOf(a) != si {
				t.Errorf("SetOf(%#x) = %d, want %d", a, m.SetOf(a), si)
			}
		}
	}
	if m.SetOf(0xdead000) != -1 {
		t.Error("unknown address should map to -1")
	}
}

func TestDiscoverFindsDistinctSets(t *testing.T) {
	g := memsim.TinyGeometry()
	h := memsim.New(g, 23)
	p := pool(0, 96)
	cfg := tinyConfig(p)
	cfg.MaxSets = 3
	m, err := Discover(h, cfg)
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	if len(m.Sets) < 2 {
		t.Fatalf("found %d sets, want >= 2", len(m.Sets))
	}
	// Distinct discovered sets must be distinct hidden sets.
	seen := map[int]bool{}
	for _, s := range m.Sets {
		hidden := h.DebugContentionSet(s.Addrs[0])
		if seen[hidden] {
			t.Errorf("hidden set %d discovered twice", hidden)
		}
		seen[hidden] = true
	}
}

func TestDiscoverValidation(t *testing.T) {
	h := memsim.New(memsim.TinyGeometry(), 1)
	if _, err := Discover(h, DiscoverConfig{Assoc: 0, Pool: pool(0, 8)}); err == nil {
		t.Error("Assoc=0 accepted")
	}
	cfg := tinyConfig(nil)
	if _, err := Discover(h, cfg); err == nil {
		t.Error("empty pool accepted")
	}
	// A pool too small to exceed associativity anywhere finds nothing.
	cfg = tinyConfig(pool(0, 3))
	if _, err := Discover(h, cfg); err == nil {
		t.Error("tiny pool should find no sets")
	}
}

func TestDiscoverDefaultGeometrySingleSet(t *testing.T) {
	if testing.Short() {
		t.Skip("full-geometry discovery is slow")
	}
	g := memsim.DefaultGeometry()
	h := memsim.New(g, 99)
	// 128 sets, α=16: a ~2600-line pool averages ~20 per set.
	p := pool(0, 2600)
	cfg := DiscoverConfig{
		Pool:      p,
		Assoc:     g.L3Ways,
		LineBytes: g.LineBytes,
		LatL3:     g.LatL3,
		LatDRAM:   g.LatDRAM,
		MaxSets:   1,
		Seed:      7,
	}
	m, err := Discover(h, cfg)
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	s := m.Sets[0]
	if len(s.Addrs) < g.L3Ways+1 {
		t.Fatalf("set has %d members, want > α=%d", len(s.Addrs), g.L3Ways)
	}
	want := h.DebugContentionSet(s.Addrs[0])
	for _, a := range s.Addrs {
		if h.DebugContentionSet(a) != want {
			t.Errorf("member %#x in hidden set %d, want %d", a, h.DebugContentionSet(a), want)
		}
	}
}

func TestTrackerPlacementAndContention(t *testing.T) {
	m := &Model{
		Assoc:     2,
		LineBytes: 64,
		Sets: []ContentionSet{
			{Addrs: []uint64{0x0, 0x40, 0x80, 0xc0}},
			{Addrs: []uint64{0x100, 0x140, 0x180}},
		},
	}
	m.buildIndex()
	tr := m.NewTracker()

	// Candidates initially list all members; ties broken by set index.
	c := tr.Candidates()
	if len(c) != 7 {
		t.Fatalf("candidates = %d", len(c))
	}
	if c[0] != 0x0 {
		t.Errorf("first candidate = %#x", c[0])
	}

	// Record accesses into set 0 until contention.
	if tr.RecordAccess(0x0) != true {
		t.Error("cold access should be DRAM")
	}
	if tr.RecordAccess(0x0) != false {
		t.Error("repeat access should hit")
	}
	tr.RecordAccess(0x40)
	if tr.ContendedSets() != 0 {
		t.Error("not yet contended")
	}
	if !tr.RecordAccess(0x80) { // third line in 2-way set: thrash
		t.Error("third line should be DRAM")
	}
	if tr.ContendedSets() != 1 {
		t.Errorf("ContendedSets = %d", tr.ContendedSets())
	}
	// Once contended, even previously-placed lines miss.
	if !tr.RecordAccess(0x0) {
		t.Error("access within thrashing set should be DRAM")
	}

	// The contended set keeps priority in Candidates (deepen the thrash).
	c = tr.Candidates()
	if c[0] != 0xc0 {
		t.Errorf("next candidate = %#x, want remaining member of hot set", c[0])
	}

	// Lines in unknown space: cold miss once, then hit.
	if !tr.RecordAccess(0x9000) {
		t.Error("unknown cold line should be DRAM")
	}
	if tr.RecordAccess(0x9008) { // same line (0x9000..0x9040)
		t.Error("unknown warm line should hit")
	}
	if tr.PlacedLines() != 4 {
		t.Errorf("PlacedLines = %d", tr.PlacedLines())
	}
}

func TestTrackerClone(t *testing.T) {
	m := &Model{Assoc: 1, LineBytes: 64, Sets: []ContentionSet{{Addrs: []uint64{0, 64}}}}
	m.buildIndex()
	tr := m.NewTracker()
	tr.RecordAccess(0)
	cl := tr.Clone()
	cl.RecordAccess(64)
	if cl.ContendedSets() != 1 {
		t.Error("clone should see contention")
	}
	if tr.ContendedSets() != 0 {
		t.Error("original polluted by clone")
	}
	if cl.Model() != m {
		t.Error("model pointer lost")
	}
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	m := &Model{
		Assoc:     4,
		LineBytes: 64,
		Sets: []ContentionSet{
			{Addrs: []uint64{0x1000, 0x2000, 0x3000}},
			{Addrs: []uint64{0x4040, 0x5040}},
		},
	}
	m.buildIndex()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Assoc != 4 || got.LineBytes != 64 || len(got.Sets) != 2 {
		t.Fatalf("loaded shape: %+v", got)
	}
	if got.SetOf(0x2000) != 0 || got.SetOf(0x5040) != 1 || got.SetOf(0x9999) != -1 {
		t.Error("index not rebuilt after load")
	}
}

func TestModelLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not json"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Load(bytes.NewReader([]byte(`{"assoc":0,"line_bytes":64,"sets":[]}`))); err == nil {
		t.Error("zero assoc accepted")
	}
	if _, err := Load(bytes.NewReader([]byte(`{"assoc":4,"line_bytes":64,"sets":[[]]}`))); err == nil {
		t.Error("empty set accepted")
	}
}

func TestModelLoadRejectsDuplicateMembership(t *testing.T) {
	dupAcross := `{"assoc":4,"line_bytes":64,"sets":[[4096,8192],[8192,12288]]}`
	if _, err := Load(bytes.NewReader([]byte(dupAcross))); !errors.Is(err, ErrInconsistent) {
		t.Errorf("address in two sets: err = %v, want ErrInconsistent", err)
	}
	dupWithin := `{"assoc":4,"line_bytes":64,"sets":[[4096,4096]]}`
	if _, err := Load(bytes.NewReader([]byte(dupWithin))); !errors.Is(err, ErrInconsistent) {
		t.Errorf("address twice in one set: err = %v, want ErrInconsistent", err)
	}
}

func equalAddrs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDiscoverWorkerCountInvariant asserts the determinism contract of
// parallel discovery: with forked probers, any worker count yields the
// same contention sets (same count, same sorted members) as a fully
// sequential run without forks.
func TestDiscoverWorkerCountInvariant(t *testing.T) {
	g := memsim.TinyGeometry()
	run := func(workers int) *Model {
		h := memsim.New(g, 11)
		cfg := tinyConfig(pool(0, 64))
		cfg.Workers = workers
		cfg.Fork = func() Prober { return h.Fork() }
		m, err := Discover(h, cfg)
		if err != nil {
			t.Fatalf("Discover(workers=%d): %v", workers, err)
		}
		return m
	}
	ref := run(1)
	for _, w := range []int{2, 4, 8} {
		m := run(w)
		if len(m.Sets) != len(ref.Sets) {
			t.Fatalf("w=%d: %d sets, want %d", w, len(m.Sets), len(ref.Sets))
		}
		for si := range ref.Sets {
			got, want := m.Sets[si].Addrs, ref.Sets[si].Addrs
			if len(got) != len(want) {
				t.Fatalf("w=%d set %d: %d members, want %d", w, si, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("w=%d set %d member %d: %#x, want %#x", w, si, i, got[i], want[i])
				}
			}
		}
	}
}

// noisyProber reads every probe of at most α addresses that ends in at
// as a contention jump, the way one noisy measurement would: a pure
// function of the probed addresses, so forks agree on it. The first
// grow chunk is such a probe when it ends in at, and so is every shrink
// probe of it, so the faked set can never reach α+1 members.
type noisyProber struct {
	h      *memsim.Hierarchy
	at     uint64
	assoc  int
	jumped *atomic.Int64
}

func (p noisyProber) ProbeBatch(sets [][]uint64, rounds int) []uint64 {
	times := p.h.ProbeBatch(sets, rounds)
	for i, addrs := range sets {
		if n := len(addrs); n > 0 && n <= p.assoc && addrs[n-1] == p.at {
			p.jumped.Add(1)
			times[i] += 1 << 20
		}
	}
	return times
}

func (p noisyProber) Reboot(id uint64) { p.h.Reboot(id) }

// firstProber records the first probe Discover makes: the pre-fault
// pass over the whole pool, in the shuffled order grow walks.
type firstProber struct {
	h     *memsim.Hierarchy
	first []uint64
}

func (p *firstProber) ProbeBatch(sets [][]uint64, rounds int) []uint64 {
	if p.first == nil {
		p.first = slices.Clone(sets[0])
	}
	return p.h.ProbeBatch(sets, rounds)
}

func (p *firstProber) Reboot(id uint64) { p.h.Reboot(id) }

// TestDiscoverContinuesPastNoisyJump fakes one jump in the first grow
// chunk, on an address the clean run's model does not cover. Shrinking
// it yields fewer than α+1 members, so discovery must drop that one
// address and go on to find exactly the clean run's sets, at one worker
// and with forked probers.
func TestDiscoverContinuesPastNoisyJump(t *testing.T) {
	g := memsim.TinyGeometry()
	for seed := uint64(1); seed <= 32; seed++ {
		cfg := tinyConfig(pool(0, 64))
		cfg.Seed = seed
		rec := &firstProber{h: memsim.New(g, 11)}
		clean, err := Discover(rec, cfg)
		if err != nil {
			t.Fatalf("seed %d: clean run: %v", seed, err)
		}
		at := rec.first[g.L3Ways/2-1] // the end of grow's first chunk
		if clean.SetOf(at) >= 0 {
			continue
		}
		for _, w := range []int{1, 2} {
			var jumped atomic.Int64
			h := memsim.New(g, 11)
			wcfg := cfg
			wcfg.Workers = w
			wcfg.Fork = func() Prober { return noisyProber{h.Fork(), at, g.L3Ways, &jumped} }
			m, err := Discover(noisyProber{h, at, g.L3Ways, &jumped}, wcfg)
			if err != nil {
				t.Fatalf("seed %d W=%d: %v after the faked jump", seed, w, err)
			}
			if jumped.Load() == 0 {
				t.Fatalf("seed %d W=%d: the faked jump never fired", seed, w)
			}
			if len(m.Sets) != len(clean.Sets) {
				t.Fatalf("seed %d W=%d: %d sets, clean run %d", seed, w, len(m.Sets), len(clean.Sets))
			}
			for si := range clean.Sets {
				if got, want := m.Sets[si].Addrs, clean.Sets[si].Addrs; !equalAddrs(got, want) {
					t.Errorf("seed %d W=%d set %d: %v, clean run %v", seed, w, si, got, want)
				}
			}
		}
		return
	}
	t.Fatal("no seed in 1..32 leaves the first chunk's last address uncovered")
}
