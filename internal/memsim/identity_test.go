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
	geo  Geometry
	obs  [7]*obs.Counter
	data []byte
	pos  int
	step int
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
		tr.step++
		tw := tr.twins[tr.cur]
		op := tr.next()
		var what string
		switch {
		case op < 208: // sizes 1-8 at any offset, so some cross a line boundary
			a, size := tr.addr(tr.page()), 1+tr.next()%8
			what = fmt.Sprintf("Access(%#x, %d)", a, size)
			gl, gc := tw.h.Access(a, size, op&1 == 1)
			wl, wc := tw.r.Access(a, size)
			if gl != wl || gc != wc {
				tr.t.Fatalf("step %d: %s = %v/%d, reference %v/%d", tr.step, what, gl, gc, wl, wc)
			}
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
				sets := make([][]uint64, 1+tr.next()%3)
				for i := range sets {
					page := tr.page()
					for n := int(tr.next()) % 64; n > 0; n-- {
						sets[i] = append(sets[i], tr.addr(page))
					}
				}
				what, _ = tr.probeBatch(tw, sets, int(tr.next())%4)
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
	tr.sameCaches()
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
				if ref.evictions == 0 || ref.L2Hits == 0 || ref.L3Hits == 0 || ref.probeCalls == 0 || len(tr.twins) < 2 {
					t.Errorf("trace too tame: %+v, %d twins", *ref, len(tr.twins))
				}
			})
		}
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
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		geo := [...]Geometry{TinyGeometry(), DefaultGeometry(), oddGeometry(), TinyGeometry()}[data[0]&3]
		newTraceRun(t, geo, uint64(data[0]>>2), data[1:]).run()
	})
}
