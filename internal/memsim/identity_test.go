package memsim

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"castan/internal/obs"
	"castan/internal/stats"
)

// tracePages is how many virtual pages a trace spreads over: three times
// what the translation cache holds, so entries are displaced and refilled
// from the page map throughout.
const tracePages = 3 * tlbEntries

// twin is a Hierarchy and the reference it must stay indistinguishable
// from. Forks share their origin's obs counters, so the reference forks
// share one tally the same way.
type twin struct {
	h *Hierarchy
	r *refHierarchy
}

// traceRun interprets a byte string as calls against a set of twins,
// comparing everything observable after each one.
type traceRun struct {
	t     *testing.T
	twins []twin
	cur   int
	// pool is the in-page line offsets a trace draws from: a run of
	// adjacent lines plus, per page, enough lines of one contention set
	// to overflow it, so every level evicts within a short trace.
	pool []uint64
	// class is each pool line's contention set on page 0. The hidden
	// hash is f(in-page line) xor g(page), so lines of one page share a
	// set iff they share a class.
	class   []int
	geo     Geometry
	obs     [7]*obs.Counter
	counted *obs.Counter // memsim.probes_counted, which the reference lacks
	data    []byte
	pos     int
	step    int
}

var obsNames = [7]string{
	"memsim.l1_hits", "memsim.l2_hits", "memsim.l3_hits",
	"memsim.dram_misses", "memsim.l3_evictions", "memsim.probe_calls", "memsim.probe_line_reads",
}

func newTraceRun(t *testing.T, geo Geometry, seed uint64, data []byte) *traceRun {
	rec := obs.New(obs.NewFakeClock(1))
	h := New(geo, seed)
	h.SetObs(rec)
	tr := &traceRun{t: t, geo: geo, data: data, twins: []twin{{h, newRef(geo, seed)}}}
	for i, n := range obsNames {
		tr.obs[i] = rec.Counter(n)
	}
	tr.counted = rec.Counter("memsim.probes_counted")
	// The hidden hash is f(in-page line) xor g(page), so lines that share
	// a contention set in one page share one in every page and after
	// every reboot: find them once on a scratch machine.
	scout := New(geo, seed)
	target := scout.DebugContentionSet(0)
	for line := uint64(0); line < 32; line++ {
		tr.pool = append(tr.pool, line)
	}
	for line := uint64(32); len(tr.pool) < 32+2*geo.L3Ways+8; line++ {
		if scout.DebugContentionSet(line<<scout.lineShift) == target {
			tr.pool = append(tr.pool, line)
		}
	}
	for _, line := range tr.pool {
		tr.class = append(tr.class, scout.DebugContentionSet(line<<scout.lineShift))
	}
	return tr
}

func (tr *traceRun) next() byte {
	if tr.pos >= len(tr.data) {
		return 0
	}
	b := tr.data[tr.pos]
	tr.pos++
	return b
}

// page decodes a virtual page number, half of the time one of the first
// two so that single sets fill up between flushes.
func (tr *traceRun) page() uint64 {
	b := uint64(tr.next())
	if b < 128 {
		return b % 2
	}
	return b % tracePages
}

// addr decodes an address on the given page: a pool line and an offset
// inside it.
func (tr *traceRun) addr(page uint64) uint64 {
	line := tr.pool[int(tr.next())%len(tr.pool)]
	off := uint64(tr.next()) % uint64(tr.geo.LineBytes)
	return page<<uint(tr.geo.PageBits) | line*uint64(tr.geo.LineBytes) | off
}

func (tr *traceRun) run() {
	for tr.pos < len(tr.data) {
		tr.op()
	}
	tr.sameCaches()
}

// op decodes and runs one call on the current twin, then compares the
// counters.
func (tr *traceRun) op() {
	tr.step++
	tw := tr.twins[tr.cur]
	op := tr.next()
	var what string
	switch {
	case op < 208: // sizes 1-8 at any offset, so some cross a line boundary
		a, size := tr.addr(tr.page()), 1+tr.next()%8
		what = tr.access(tw, a, size, op&1 == 1)
	case op < 240:
		a, n := tr.addr(tr.page()), int(tr.next())
		what = fmt.Sprintf("InjectPacket(%#x, %d)", a, n)
		tw.h.InjectPacket(a, n)
		tw.r.InjectPacket(a, n)
	case op < 244:
		what = "Fork"
		if len(tr.twins) < 4 {
			tr.twins = append(tr.twins, twin{tw.h.Fork(), tw.r.Fork()})
		}
	case op < 255: // diverge: carry on with another fork (or the origin)
		what = "switch"
		tr.cur = int(tr.next()) % len(tr.twins)
	default:
		// Everything that empties the caches shares one opcode, or a
		// random trace never keeps state long enough to evict.
		switch sub := tr.next(); {
		case sub < 160:
			what, _ = tr.probeBatch(tw, tr.probeSets(), int(tr.next())%4)
		case sub < 208:
			what = "Flush"
			tw.h.Flush()
			tw.r.Flush()
		default:
			boot := uint64(tr.next())
			what = fmt.Sprintf("Reboot(%d)", boot)
			tw.h.Reboot(boot)
			tw.r.Reboot(boot)
		}
	}
	tr.sameCounters(tw, what)
}

// access runs one Access on a twin and compares the results.
func (tr *traceRun) access(tw twin, a uint64, size uint8, write bool) string {
	what := fmt.Sprintf("Access(%#x, %d)", a, size)
	gl, gc := tw.h.Access(a, size, write)
	wl, wc := tw.r.Access(a, size)
	if gl != wl || gc != wc {
		tr.t.Fatalf("step %d: %s = %v/%d, reference %v/%d", tr.step, what, gl, gc, wl, wc)
	}
	return what
}

// probeSets decodes one to three probe sets, each on one page and of one
// of three kinds: pool lines drawn freely, so repeats are common; lines
// that are distinct but may overflow a contention set; and distinct
// lines with at most L3Ways of any set, the probes ProbeBatch counts
// rather than simulates when it times one round.
func (tr *traceRun) probeSets() [][]uint64 {
	sets := make([][]uint64, 1+tr.next()%3)
	for i := range sets {
		page := tr.page()
		kind, n := tr.next()%3, int(tr.next())%64
		if kind == 0 {
			for ; n > 0; n-- {
				sets[i] = append(sets[i], tr.addr(page))
			}
			continue
		}
		used := make([]bool, len(tr.pool))
		perSet := map[int]int{}
		taken := func(j int) bool {
			return used[j] || kind == 2 && perSet[tr.class[j]] == tr.geo.L3Ways
		}
		for ; n > 0; n-- {
			j := int(tr.next()) % len(tr.pool)
			for k := 0; k < len(tr.pool) && taken(j); k++ {
				j = (j + 1) % len(tr.pool)
			}
			if taken(j) {
				break // no pool line can join without breaking the kind
			}
			used[j] = true
			perSet[tr.class[j]]++
			off := uint64(tr.next()) % uint64(tr.geo.LineBytes)
			sets[i] = append(sets[i], page<<uint(tr.geo.PageBits)|tr.pool[j]*uint64(tr.geo.LineBytes)|off)
		}
	}
	return sets
}

// probeBatch runs one ProbeBatch on a twin and compares the timings.
func (tr *traceRun) probeBatch(tw twin, sets [][]uint64, rounds int) (string, []uint64) {
	what := fmt.Sprintf("ProbeBatch(%d sets, %d rounds)", len(sets), rounds)
	got, want := tw.h.ProbeBatch(sets, rounds), tw.r.ProbeBatch(sets, rounds)
	for i := range want {
		if got[i] != want[i] {
			tr.t.Fatalf("step %d: %s set %d timed %d, reference %d", tr.step, what, i, got[i], want[i])
		}
	}
	return what, got
}

// sameCounters compares a twin's Stats and the obs totals after a call.
func (tr *traceRun) sameCounters(tw twin, what string) {
	if tw.h.Stats != tw.r.Stats {
		tr.t.Fatalf("step %d: after %s Stats = %+v, reference %+v", tr.step, what, tw.h.Stats, tw.r.Stats)
	}
	ref := tw.r.tally
	want := [7]uint64{ref.L1Hits, ref.L2Hits, ref.L3Hits, ref.DRAM, ref.evictions, ref.probeCalls, ref.probeLineReads}
	for i, c := range tr.obs {
		if c.Value() != want[i] {
			tr.t.Fatalf("step %d: after %s %s = %d, reference %d", tr.step, what, obsNames[i], c.Value(), want[i])
		}
	}
}

// sameCaches compares every twin's cache contents with its reference's.
func (tr *traceRun) sameCaches() {
	for i, tw := range tr.twins {
		tr.sameResidency(i, "L1", &tw.h.l1, tw.r.l1)
		tr.sameResidency(i, "L2", &tw.h.l2, tw.r.l2)
		tr.sameResidency(i, "L3", &tw.h.l3, tw.r.l3)
	}
}

// sameResidency checks the representation claim itself: each set holds
// the reference's valid lines, ordered by the reference's stamps newest
// first, then only empty ways.
func (tr *traceRun) sameResidency(twin int, name string, got *level, ref *refCache) {
	for set := 0; set < ref.sets; set++ {
		ways := make([]int, 0, ref.ways)
		for w := set * ref.ways; w < (set+1)*ref.ways; w++ {
			if ref.tags[w] != 0 {
				ways = append(ways, w)
			}
		}
		sort.Slice(ways, func(i, j int) bool { return ref.stamp[ways[i]] > ref.stamp[ways[j]] })
		want := make([]uint64, ref.ways)
		for i, w := range ways {
			want[i] = ref.tags[w]
		}
		if g := got.set(set); !slices.Equal(g, want) {
			tr.t.Fatalf("twin %d %s set %d holds %v, reference by recency %v", twin, name, set, g, want)
		}
	}
}

// oddGeometry has L1 and L2 set counts that are not powers of two, which
// no shipped geometry has but Geometry permits: set selection falls back
// from a mask to a remainder.
func oddGeometry() Geometry {
	g := TinyGeometry()
	g.L1Sets, g.L1Ways = 3, 3
	g.L2Sets, g.L2Ways = 6, 5
	return g
}

// TestHierarchyMatchesReference holds the recency-ordered hierarchy to
// the stamp-based one it replaced on seeded random traces: every returned
// level, cycle count and probe timing, Stats and the obs totals after
// every call, and each set's contents and order at the end.
func TestHierarchyMatchesReference(t *testing.T) {
	for _, g := range []struct {
		name string
		geo  Geometry
	}{{"tiny", TinyGeometry()}, {"default", DefaultGeometry()}, {"odd", oddGeometry()}} {
		for seed := uint64(1); seed <= 4; seed++ {
			g, seed := g, seed
			t.Run(fmt.Sprintf("%s/seed%d", g.name, seed), func(t *testing.T) {
				n := 120_000
				if testing.Short() {
					n = 30_000
				}
				data := make([]byte, n)
				rng := stats.NewRNG(seed * 977)
				for i := range data {
					data[i] = byte(rng.Uint64())
				}
				tr := newTraceRun(t, g.geo, seed, data)
				tr.run()
				// The trace must have reached what it is there to compare.
				ref := tr.twins[0].r.tally
				if ref.evictions == 0 || ref.L2Hits == 0 || ref.L3Hits == 0 || ref.probeCalls == 0 || tr.counted.Value() == 0 || len(tr.twins) < 2 {
					t.Errorf("trace too tame: %+v, %d counted probes, %d twins", *ref, tr.counted.Value(), len(tr.twins))
				}
			})
		}
	}
}

// TestProbeBatchCountsAndSimulates drives one-round probes of all three
// kinds probeSets makes and holds each to the reference: timings and
// counters, every set's contents right after the probe, and the same
// again after the call that follows it, one of Access and InjectPacket
// on a probed line, Fork, Flush and Reboot in turn, then a few random
// calls. ProbeBatch must compute every probe of distinct lines, those
// that overflow a contention set too, and simulate exactly the probes
// that repeat a line.
func TestProbeBatchCountsAndSimulates(t *testing.T) {
	for _, g := range []struct {
		name string
		geo  Geometry
	}{{"tiny", TinyGeometry()}, {"default", DefaultGeometry()}, {"odd", oddGeometry()}} {
		t.Run(g.name, func(t *testing.T) {
			rng := stats.NewRNG(55)
			data := make([]byte, 1<<16)
			for i := range data {
				data[i] = byte(rng.Uint64())
			}
			tr := newTraceRun(t, g.geo, 5, data)
			overflowing := 0
			for i := 0; i < 400; i++ {
				tr.step++
				tw := tr.twins[tr.cur]
				sets := tr.probeSets()
				before := tr.counted.Value()
				what, _ := tr.probeBatch(tw, sets, 1)
				tr.sameCounters(tw, what)
				distinct := 0
				for _, set := range sets {
					if !repeatsLine(g.geo, set) {
						distinct++
						if overflows(tw.h, set) {
							overflowing++
						}
					}
				}
				if got := tr.counted.Value() - before; got != uint64(distinct) {
					t.Fatalf("step %d: %s computed %d probes, %d have distinct lines", tr.step, what, got, distinct)
				}
				tr.sameCaches()
				var probed uint64
				for _, set := range sets {
					if len(set) > 0 {
						probed = set[len(set)/2]
					}
				}
				tr.step++
				switch i % 5 {
				case 0:
					what = tr.access(tw, probed, 8, false)
				case 1:
					what = "InjectPacket"
					tw.h.InjectPacket(probed, 3*g.geo.LineBytes)
					tw.r.InjectPacket(probed, 3*g.geo.LineBytes)
				case 2:
					what = "Fork"
					if len(tr.twins) < 4 {
						tr.twins = append(tr.twins, twin{tw.h.Fork(), tw.r.Fork()})
					}
					tr.cur = (tr.cur + 1) % len(tr.twins)
				case 3:
					what = "Flush"
					tw.h.Flush()
					tw.r.Flush()
				case 4:
					what = fmt.Sprintf("Reboot(%d)", i)
					tw.h.Reboot(uint64(i))
					tw.r.Reboot(uint64(i))
				}
				tr.sameCounters(tw, what)
				tr.sameCaches()
				for j := 0; j < 4; j++ {
					tr.op()
				}
			}
			tr.sameCaches()
			counted, calls := tr.counted.Value(), tr.obs[5].Value() // memsim.probe_calls
			if counted == calls || overflowing == 0 {
				t.Errorf("%d of %d probes computed, %d of them overflowing: a path never ran", counted, calls, overflowing)
			}
			t.Logf("%d of %d probes computed, %d of them overflowing", counted, calls, overflowing)
		})
	}
}

// repeatsLine reports whether a probe set names some line twice.
func repeatsLine(geo Geometry, set []uint64) bool {
	seen := map[uint64]bool{}
	for _, a := range set {
		line := a &^ uint64(geo.LineBytes-1)
		if seen[line] {
			return true
		}
		seen[line] = true
	}
	return false
}

// overflows reports whether a probe set gives some contention set more
// than L3Ways lines. Its pages must be mapped already.
func overflows(h *Hierarchy, set []uint64) bool {
	perSet := map[int]int{}
	for _, a := range set {
		cs := h.DebugContentionSet(a)
		if perSet[cs]++; perSet[cs] > h.geo.L3Ways {
			return true
		}
	}
	return false
}

// probeLevels is the reference's one-round probe of addrs: it returns
// where each line's timed access was served.
func (h *refHierarchy) probeLevels(addrs []uint64) []Level {
	h.Flush()
	saved, tally := h.Stats, *h.tally
	lb := uint64(h.geo.LineBytes)
	for _, a := range addrs {
		h.accessLine(a &^ (lb - 1))
	}
	levels := make([]Level, len(addrs))
	for i, a := range addrs {
		levels[i], _ = h.accessLine(a &^ (lb - 1))
	}
	h.Stats, *h.tally = saved, tally
	return levels
}

// overflowProbe draws a one-round probe of distinct lines on one page,
// shaped like discovery's: one to three contention sets get L3Ways+1 to
// L3Ways+3 lines each, and up to 215 random lines (fewer than the L3
// holds) are mixed in. byClass lists in-page lines by contention set.
func overflowProbe(geo Geometry, rng *stats.RNG, byClass [][]uint64) []uint64 {
	page := rng.Uint64() % 3
	used := map[uint64]bool{}
	var probe []uint64
	add := func(line uint64) {
		if !used[line] {
			used[line] = true
			probe = append(probe, page<<uint(geo.PageBits)|line*uint64(geo.LineBytes))
		}
	}
	for k := 1 + rng.Uint64()%3; k > 0; k-- {
		class := slices.Clone(byClass[rng.Uint64()%uint64(len(byClass))])
		rng.Shuffle(len(class), func(i, j int) { class[i], class[j] = class[j], class[i] })
		for _, line := range class[:geo.L3Ways+1+int(rng.Uint64()%3)] {
			add(line)
		}
	}
	total := len(probe) + int(rng.Uint64()%uint64(min(216, geo.L3Bytes()/geo.LineBytes)))
	for tries := 0; len(probe) < total && tries < 4*total; tries++ {
		class := byClass[rng.Uint64()%uint64(len(byClass))]
		add(class[rng.Uint64()%uint64(len(class))])
	}
	rng.Shuffle(len(probe), func(i, j int) { probe[i], probe[j] = probe[j], probe[i] })
	return probe
}

// TestProbeOverflowIsServedByDRAM checks the rule computeProbe rests on
// against the reference, which reads every line: in a one-round probe of
// distinct lines, a timed access goes to DRAM iff its contention set
// receives more than L3Ways of the probe's lines. It also holds each
// line's level as computeProbe decided it, and the timing, to the
// reference, as well as every set's contents after the probe, and
// requires some probes to have replayed an L1 set and some an L2 set.
func TestProbeOverflowIsServedByDRAM(t *testing.T) {
	for _, g := range []struct {
		name string
		geo  Geometry
	}{{"tiny", TinyGeometry()}, {"default", DefaultGeometry()}, {"odd", oddGeometry()}} {
		t.Run(g.name, func(t *testing.T) {
			h, ref := New(g.geo, 9), newRef(g.geo, 9)
			// The hidden hash is f(in-page line) xor g(page), so lines
			// that share a contention set on one page share one on all.
			scout := New(g.geo, 9)
			byClass := make([][]uint64, g.geo.NumContentionSets())
			for line := uint64(0); line < uint64(64*g.geo.NumContentionSets()); line++ {
				cs := scout.DebugContentionSet(line * uint64(g.geo.LineBytes))
				byClass[cs] = append(byClass[cs], line)
			}
			rng := stats.NewRNG(57)
			lat := [...]uint64{L1: g.geo.LatL1, L2: g.geo.LatL2, L3: g.geo.LatL3, DRAM: g.geo.LatDRAM}
			var overLines, lines, replayed1, replayed2 int
			for probe := 0; probe < 300; probe++ {
				addrs := overflowProbe(g.geo, rng, byClass)
				got := h.ProbeBatch([][]uint64{addrs}, 1)[0]
				levels := ref.probeLevels(addrs)
				perSet := map[int]int{}
				for _, a := range addrs {
					perSet[ref.l3Set(ref.translate(a)>>refLineShift(g.geo))]++
				}
				var want uint64
				for i, a := range addrs {
					over := perSet[ref.l3Set(ref.translate(a)>>refLineShift(g.geo))] > g.geo.L3Ways
					if (levels[i] == DRAM) != over {
						t.Fatalf("probe %d line %d: served by %v, its contention set overflowing: %v", probe, i, levels[i], over)
					}
					if l := h.scratch[i].lvl; l != levels[i] {
						t.Fatalf("probe %d line %d: computed %v, reference %v", probe, i, l, levels[i])
					}
					want += lat[levels[i]]
					if over {
						overLines++
					}
				}
				if got != want {
					t.Fatalf("probe %d: timed %d, reference %d", probe, got, want)
				}
				tr := &traceRun{t: t}
				tr.sameResidency(0, "L1", &h.l1, ref.l1)
				tr.sameResidency(0, "L2", &h.l2, ref.l2)
				tr.sameResidency(0, "L3", &h.l3, ref.l3)
				lines += len(addrs)
				for _, a := range h.counts.c1 {
					if a.replay {
						replayed1++
					}
				}
				for _, b := range h.counts.c2 {
					if b.replay {
						replayed2++
					}
				}
			}
			if overLines == 0 || overLines == lines || replayed1 == 0 || replayed2 == 0 {
				t.Errorf("%d of %d lines over; %d L1 and %d L2 sets replayed: a case never ran", overLines, lines, replayed1, replayed2)
			}
			t.Logf("%d of %d lines over; %d L1 and %d L2 sets replayed", overLines, lines, replayed1, replayed2)
		})
	}
}

// TestProbeBatchRepeatedLines probes sets that name one line twice:
// right after itself, and again after more than α lines of its
// contention set have evicted it. The warm-up pass takes the fill-only
// miss path just for lines the L3 does not hold, so the first repeat
// must still be an L1 hit and the second a fresh miss. Both are held to
// the reference hierarchy (timings, counters, every set's contents) and
// to scalar ProbeTime.
func TestProbeBatchRepeatedLines(t *testing.T) {
	for _, geo := range []Geometry{TinyGeometry(), DefaultGeometry(), oddGeometry()} {
		tr := newTraceRun(t, geo, 3, nil)
		tw := tr.twins[0]
		addr := func(i int) uint64 { return tr.pool[i] * uint64(geo.LineBytes) }
		x := addr(32) // tr.pool[32:] share one contention set
		evicting := []uint64{x}
		for i := 33; i <= 33+geo.L3Ways; i++ {
			evicting = append(evicting, addr(i))
		}
		evicting = append(evicting, x)
		for rounds := 1; rounds <= 3; rounds++ {
			for _, set := range [][]uint64{{x, x, addr(0)}, evicting} {
				tr.step++
				l1 := tr.obs[0].Value() // memsim.l1_hits
				what, got := tr.probeBatch(tw, [][]uint64{set}, rounds)
				tr.sameCounters(tw, what)
				if set[1] == x && tr.obs[0].Value() == l1 {
					t.Fatalf("%v: %s: the back-to-back repeat was no L1 hit", geo, what)
				}
				if scalar := New(geo, 3).ProbeTime(set, rounds); scalar != got[0] {
					t.Fatalf("%v: %s: scalar ProbeTime timed %d, batch %d", geo, what, scalar, got[0])
				}
			}
		}
		tr.sameCaches()
	}
}

// traceGeometries is the geometry FuzzHierarchyTrace reads from the low
// two bits of its first byte.
var traceGeometries = [...]Geometry{TinyGeometry(), DefaultGeometry(), oddGeometry(), TinyGeometry()}

// overflowSeeds returns FuzzHierarchyTrace inputs for the given first
// byte that each make one one-round ProbeBatch call of distinct lines on
// page 0: three whose one contention set gets L3Ways+1 to L3Ways+3
// lines, and, where the pool allows them, one whose probe computeProbe
// must replay an L1 set for and one it must replay an L2 set for. The
// latter are found by search, so they stay what they say if the hidden
// hash changes.
func overflowSeeds(first byte) [][]byte {
	geo := traceGeometries[first&3]
	tr := newTraceRun(nil, geo, uint64(first>>2), nil)
	// encode writes the ProbeBatch opcode for one kind-1 set of the
	// given pool lines, each at offset 0, timed for one round.
	encode := func(pool []int) []byte {
		data := []byte{first, 255, 0, 0, 0, 1, byte(len(pool))}
		for _, j := range pool {
			data = append(data, byte(j), 0)
		}
		return append(data, 1)
	}
	addrs := func(pool []int) []uint64 {
		var a []uint64
		for _, j := range pool {
			a = append(a, tr.pool[j]*uint64(geo.LineBytes))
		}
		return a
	}
	var seeds [][]byte
	// tr.pool[32:] share one contention set; up to eight of the adjacent
	// lines that keep every other set within L3Ways go between them.
	for k := 1; k <= 3; k++ {
		var pool []int
		perSet := map[int]int{}
		for j := 0; j < 32 && len(pool) < 8; j++ {
			if c := tr.class[j]; c != tr.class[32] && perSet[c] < geo.L3Ways {
				perSet[c]++
				pool = append(pool, j)
			}
		}
		for j := 32; j < 32+geo.L3Ways+k; j++ {
			pool = slices.Insert(pool, min(len(pool), 2*(j-32)), j)
		}
		seeds = append(seeds, encode(pool))
	}
	rng := stats.NewRNG(uint64(first) + 1)
	var found1, found2 bool
	for try := 0; try < 2000 && !(found1 && found2); try++ {
		pool := make([]int, len(tr.pool))
		for j := range pool {
			pool[j] = j
		}
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		pool = pool[:min(len(pool), 16+int(rng.Uint64()%48))]
		h := New(geo, uint64(first>>2))
		h.ProbeBatch([][]uint64{addrs(pool)}, 1)
		r1 := slices.ContainsFunc(h.counts.c1, func(a setTally) bool { return a.replay })
		r2 := slices.ContainsFunc(h.counts.c2, func(b setTally) bool { return b.replay })
		if r1 && !found1 || r2 && !found2 {
			seeds = append(seeds, encode(pool))
			found1, found2 = found1 || r1, found2 || r2
		}
	}
	return seeds
}

// FuzzHierarchyTrace is TestHierarchyMatchesReference driven by the
// fuzzer: the first byte picks geometry and seed, the rest is the trace.
func FuzzHierarchyTrace(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 241, 250, 1, 10, 3, 70, 0, 255, 0, 2, 40, 1, 2, 3, 4, 5, 6, 7, 255, 220, 9, 255, 170})
	rng := stats.NewRNG(2018)
	for _, n := range []int{200, 3000} {
		for geo := byte(0); geo < 3; geo++ {
			data := []byte{geo}
			for len(data) < n {
				data = append(data, byte(rng.Uint64()))
			}
			f.Add(data)
		}
	}
	// Probe-dense traces: one byte in eight is the probe opcode, so the
	// seeds alone reach both of ProbeBatch's paths.
	for geo := byte(0); geo < 3; geo++ {
		data := []byte{geo}
		for len(data) < 3000 {
			b := byte(rng.Uint64())
			if b%8 == 0 {
				b = 255
			}
			data = append(data, b)
		}
		f.Add(data)
	}
	for geo := byte(0); geo < 3; geo++ {
		for _, data := range overflowSeeds(geo) {
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		newTraceRun(t, traceGeometries[data[0]&3], uint64(data[0]>>2), data[1:]).run()
	})
}
