// Package memsim simulates the DUT's memory hierarchy: three levels of
// set-associative caches with LRU replacement, an inclusive L3 whose slice
// selection comes from a *hidden* hash (the stand-in for Intel's
// proprietary slice function), virtual→physical hugepage mapping that is
// re-randomized per simulated reboot, and DDIO placement of packet headers.
//
// The simulator stands in for the paper's Intel Xeon E5-2667v2 testbed.
// Geometry is scaled down (see DESIGN.md) but preserves every ratio that
// the evaluation relies on. The secret slice hash is deliberately
// unexported: internal/cachemodel may only learn it the way the paper does
// — by timing pointer-chase probes (§3.2).
package memsim

import (
	"fmt"

	"castan/internal/budget"
	"castan/internal/obs"
	"castan/internal/stats"
)

// Level identifies where an access was served.
type Level uint8

// Cache levels.
const (
	L1 Level = iota
	L2
	L3
	DRAM
)

// String names the level.
func (l Level) String() string {
	switch l {
	case L1:
		return "L1"
	case L2:
		return "L2"
	case L3:
		return "L3"
	default:
		return "DRAM"
	}
}

// Geometry describes the simulated processor's memory system.
type Geometry struct {
	LineBytes int // cache line size

	L1Sets, L1Ways int
	L2Sets, L2Ways int
	// The L3 is organized as Slices × SetsPerSlice sets of L3Ways lines;
	// the slice (and set) for a physical line is chosen by a hidden hash.
	L3Slices, L3SetsPerSlice, L3Ways int

	PageBits int // hugepage size (paper: 30 → 1 GB pages)

	LatL1, LatL2, LatL3, LatDRAM uint64 // load-to-use latencies in cycles

	ClockGHz float64
}

// DefaultGeometry mirrors the scaled-down Xeon of DESIGN.md: 8 KiB/8-way
// L1d, 32 KiB/8-way L2, 128 KiB/16-way L3 over 4 slices (128 contention
// sets, like the paper's 20480-set L3 scaled by the same factor as the NF
// tables), 1 GB pages, 3.3 GHz.
func DefaultGeometry() Geometry {
	return Geometry{
		LineBytes: 64,
		L1Sets:    16, L1Ways: 8, // 8 KiB
		L2Sets: 64, L2Ways: 8, // 32 KiB
		L3Slices: 4, L3SetsPerSlice: 32, L3Ways: 16, // 128 KiB
		PageBits: 30,
		LatL1:    4, LatL2: 12, LatL3: 42, LatDRAM: 210,
		ClockGHz: 3.3,
	}
}

// TinyGeometry is a deliberately small hierarchy for fast unit tests:
// 4-set/2-way L1, 8-set/2-way L2, 2-slice × 2-set × 4-way L3.
func TinyGeometry() Geometry {
	return Geometry{
		LineBytes: 64,
		L1Sets:    4, L1Ways: 2,
		L2Sets: 8, L2Ways: 2,
		L3Slices: 2, L3SetsPerSlice: 2, L3Ways: 4,
		PageBits: 20,
		LatL1:    4, LatL2: 12, LatL3: 42, LatDRAM: 210,
		ClockGHz: 3.3,
	}
}

// L3Bytes returns the total L3 capacity.
func (g Geometry) L3Bytes() int {
	return g.L3Slices * g.L3SetsPerSlice * g.L3Ways * g.LineBytes
}

// L3Assoc returns the L3 associativity α: the number of lines from one
// contention set that fit without evictions.
func (g Geometry) L3Assoc() int { return g.L3Ways }

// NumContentionSets returns how many distinct contention sets exist.
func (g Geometry) NumContentionSets() int { return g.L3Slices * g.L3SetsPerSlice }

// Counters accumulate per-level access statistics.
type Counters struct {
	Accesses uint64
	L1Hits   uint64
	L2Hits   uint64
	L3Hits   uint64
	DRAM     uint64
}

// obsCounters caches the hierarchy's obs instruments so the per-access
// hot path never takes the recorder's registry lock. The zero value
// (nil counters) no-ops. Unlike Stats — which ProbeTime and
// InjectPacket save and restore so NF-visible counters exclude probe
// traffic — obs counters deliberately keep counting through probes:
// they measure total simulator effort, including discovery.
type obsCounters struct {
	l1Hits, l2Hits, l3Hits, dram *obs.Counter
	l3Evictions                  *obs.Counter
	probeCalls, probeLineReads   *obs.Counter
	probesCounted                *obs.Counter
}

// level is one set-associative cache level with LRU replacement. Which
// way a line sits in is unobservable — only hit/miss and the victim are —
// so a set is stored as its recency order: the ways of one set are
// adjacent in tags, most recently used first, valid lines before empty
// ways (tag 0; line 0 is never used as a tag). A hit moves the line to
// the front, a fill pushes the set down one and drops the last entry,
// which is the least recently used line when the set is full and an empty
// way otherwise. That is exactly "first empty way, else the oldest
// timestamp" (DESIGN.md decision 18) without a timestamp per way.
type level struct {
	ways int
	tags []uint64 // sets × ways
	// sets is the set count and mask is sets-1 when that is a power of
	// two (every shipped geometry), selecting the index without a divide.
	sets, mask uint64
	pow2       bool
}

func newLevel(sets, ways int) level {
	n := uint64(sets)
	return level{
		ways: ways,
		tags: make([]uint64, sets*ways),
		sets: n, mask: n - 1, pow2: n&(n-1) == 0,
	}
}

func (c *level) reset() { clear(c.tags) }

// index is the set a physical line maps to (L1 and L2; the L3 index comes
// from the hidden hash).
func (c *level) index(pline uint64) int {
	if c.pow2 {
		return int(pline & c.mask)
	}
	return int(pline % c.sets)
}

func (c *level) set(set int) []uint64 { return c.tags[set*c.ways:][:c.ways] }

// hit probes set for line; on a hit the line becomes the most recent.
func (c *level) hit(set int, line uint64) bool {
	s := c.set(set)
	for i, t := range s {
		if t == line {
			if i > 0 {
				copy(s[1:i+1], s[:i])
				s[0] = line
			}
			return true
		}
		if t == 0 {
			return false // empty ways trail the valid ones
		}
	}
	return false
}

// holds reports whether line is resident in set, leaving recency alone.
func (c *level) holds(set int, line uint64) bool {
	for _, t := range c.set(set) {
		if t == line {
			return true
		}
		if t == 0 {
			return false
		}
	}
	return false
}

// fill makes line the most recent of set, returning the line that fell
// off the end (0 if a way was free). The line must not be resident.
func (c *level) fill(set int, line uint64) uint64 {
	s := c.set(set)
	evicted := s[len(s)-1]
	copy(s[1:], s)
	s[0] = line
	return evicted
}

// invalidate removes line from set if present, closing the gap so the
// remaining lines keep their order and the freed way joins the tail.
func (c *level) invalidate(set int, line uint64) {
	s := c.set(set)
	for i, t := range s {
		if t == line {
			copy(s[i:], s[i+1:])
			s[len(s)-1] = 0
			return
		}
		if t == 0 {
			return
		}
	}
}

// Hierarchy is one simulated machine's memory system.
type Hierarchy struct {
	geo Geometry
	// derived holds what every access needs of geo, computed once.
	derived

	// secret parameterizes the hidden L3 slice/set hash. It is derived
	// from the machine seed and never exposed; internal/cachemodel must
	// reverse-engineer contention behaviour through ProbeTime.
	secretF uint64
	secretG uint64

	pageMap map[uint64]uint64
	pageRng *stats.RNG
	nextPPN uint64
	// tlb fronts pageMap on the access path. It only ever holds what
	// pageMap holds, so first-touch allocation (the pageRng/nextPPN
	// draws) still happens exactly once per page, in first-touch order.
	tlb [tlbEntries]tlbEntry

	l1, l2, l3 level

	Stats Counters
	obs   obsCounters

	// probeBudget, when set, is charged one "discover" tick per probe
	// line read (the same quantity probeLineReads counts); forks inherit
	// it, and because parallel.Shards runs every probe at any worker
	// count the charged totals stay worker-count invariant. Exhaustion
	// is checked by the discovery orchestrator, never here.
	probeBudget *budget.Stage

	// probeFault, when set, perturbs ProbeTime's returned timing — the
	// fault-injection stand-in for a noisy measurement machine. It must
	// be a pure function of its inputs so forks replaying the same
	// probes see the same corruption.
	probeFault func(addrs []uint64, t uint64) uint64

	// scratch holds ProbeBatch's per-address precomputed indices, and
	// counts countProbe's per-set tallies. A hierarchy is
	// goroutine-confined (parallel discovery forks first), so reusing
	// them across probes is safe and keeps the tight loop
	// allocation-free.
	scratch []probeLine
	counts  probeCounts
}

// derived is the part of a Geometry the per-line path reads, as shifts
// and masks instead of the sizes they come from.
type derived struct {
	lineShift     uint   // log2(LineBytes)
	lineMask      uint64 // LineBytes-1
	pageBits      uint
	pageMask      uint64 // in-page offset bits of an address
	pageLineShift uint   // log2(lines per page)
	pageLineMask  uint64 // in-page bits of a line number
	l3Mask        uint64 // contention sets - 1 (a power of two)
	lat           [DRAM + 1]uint64
}

func derive(g Geometry) derived {
	shift := uint(0)
	for 1<<shift < g.LineBytes {
		shift++
	}
	pageBits := uint(g.PageBits)
	return derived{
		lineShift:     shift,
		lineMask:      uint64(g.LineBytes) - 1,
		pageBits:      pageBits,
		pageMask:      1<<pageBits - 1,
		pageLineShift: pageBits - shift,
		pageLineMask:  1<<(pageBits-shift) - 1,
		l3Mask:        uint64(g.L3Slices*g.L3SetsPerSlice) - 1,
		lat:           [...]uint64{L1: g.LatL1, L2: g.LatL2, L3: g.LatL3, DRAM: g.LatDRAM},
	}
}

// tlbEntries sizes the direct-mapped translation cache. Default-geometry
// NFs live in two 1 GiB pages; eight entries also cover the tiny test
// geometry's 1 MiB pages for everything but table sweeps.
const tlbEntries = 8

// tlbEntry caches one pageMap entry: key is the virtual page number plus
// one (0 = empty), base the physical page's byte address.
type tlbEntry struct {
	key, base uint64
}

// probeLine is one probe address with its translation and set selection
// done: the page mapping cannot change mid-probe, so the warm-up pass and
// every timed round reuse it instead of re-translating per access like the
// general Access path must.
type probeLine struct {
	tag        uint64
	s1, s2, s3 int32
	lvl        Level // countProbe: where the timed access was served
}

// probeCounts is countProbe's per-set scratch: six rows of counters over
// one backing slice. Each "in" row first counts a set's probe lines, then
// serves as the cursor that hands out the set's ways from the back.
type probeCounts struct {
	in3, reached3      []int32 // per contention set: lines served by L3
	in1                []int32 // per L1 set
	in2, hit2, missed2 []int32 // per L2 set: lines that hit / missed L1
	// rest is every row but in3, which countProbe clears on its own
	// first, so that a probe that overflows a set pays for just that row.
	rest []int32
}

func newProbeCounts(g Geometry) probeCounts {
	n1, n2, n3 := g.L1Sets, g.L2Sets, g.L3Slices*g.L3SetsPerSlice
	rest := make([]int32, n1+3*n2+2*n3)
	take := func(n int) []int32 {
		r := rest[:n:n]
		rest = rest[n:]
		return r
	}
	var c probeCounts
	c.in3 = take(n3)
	c.rest = rest
	c.reached3, c.in1 = take(n3), take(n1)
	c.in2, c.hit2, c.missed2 = take(n2), take(n2), take(n2)
	return c
}

// SetObs points the hierarchy's telemetry at rec (nil disables it).
// Forked hierarchies inherit the same counters, so parallel discovery
// probes aggregate into one set of totals; because parallel.Shards runs
// every probe regardless of worker count and forks replay identical
// accesses, the totals stay worker-count invariant.
func (h *Hierarchy) SetObs(rec *obs.Recorder) {
	if rec == nil {
		h.obs = obsCounters{}
		return
	}
	h.obs = obsCounters{
		l1Hits:         rec.Counter("memsim.l1_hits"),
		l2Hits:         rec.Counter("memsim.l2_hits"),
		l3Hits:         rec.Counter("memsim.l3_hits"),
		dram:           rec.Counter("memsim.dram_misses"),
		l3Evictions:    rec.Counter("memsim.l3_evictions"),
		probeCalls:     rec.Counter("memsim.probe_calls"),
		probeLineReads: rec.Counter("memsim.probe_line_reads"),
		probesCounted:  rec.Counter("memsim.probes_counted"),
	}
}

// SetBudget points probe-tick charging at a budget stage (nil disables
// it). Forks inherit the stage, like obs counters.
func (h *Hierarchy) SetBudget(stage *budget.Stage) { h.probeBudget = stage }

// SetProbeFault installs a probe-timing perturbation hook (nil disables
// it). Forks inherit the hook; internal/faultinject supplies seeded ones.
func (h *Hierarchy) SetProbeFault(f func(addrs []uint64, t uint64) uint64) { h.probeFault = f }

// New creates a hierarchy with the given geometry. The seed fixes the
// hidden hash; Reboot re-randomizes only the page mapping, as a real
// reboot would.
func New(geo Geometry, seed uint64) *Hierarchy {
	if geo.LineBytes == 0 {
		geo = DefaultGeometry()
	}
	r := stats.NewRNG(seed)
	h := &Hierarchy{
		geo:     geo,
		derived: derive(geo),
		secretF: r.Uint64() | 1,
		secretG: r.Uint64() | 1,
		l1:      newLevel(geo.L1Sets, geo.L1Ways),
		l2:      newLevel(geo.L2Sets, geo.L2Ways),
		l3:      newLevel(geo.L3Slices*geo.L3SetsPerSlice, geo.L3Ways),
	}
	h.Reboot(seed)
	return h
}

// Geometry returns the configured geometry.
func (h *Hierarchy) Geometry() Geometry { return h.geo }

// Fork returns an independent copy of the hierarchy: same hidden slice
// hash, same current virtual→physical mapping (including the allocator
// state for pages not yet touched), private cache and counter state.
// Parallel discovery probes forks so concurrent workers cannot perturb
// each other; as long as probed pages are already mapped (or every fork
// replays the same allocation sequence, as after Reboot), a fork's
// ProbeTime is bit-identical to the parent's.
func (h *Hierarchy) Fork() *Hierarchy {
	f := &Hierarchy{
		geo:         h.geo,
		derived:     h.derived,
		secretF:     h.secretF,
		secretG:     h.secretG,
		pageMap:     make(map[uint64]uint64, len(h.pageMap)),
		pageRng:     h.pageRng.Clone(),
		nextPPN:     h.nextPPN,
		tlb:         h.tlb, // a subset of the page map copied below
		l1:          newLevel(h.geo.L1Sets, h.geo.L1Ways),
		l2:          newLevel(h.geo.L2Sets, h.geo.L2Ways),
		l3:          newLevel(h.geo.L3Slices*h.geo.L3SetsPerSlice, h.geo.L3Ways),
		obs:         h.obs,
		probeBudget: h.probeBudget,
		probeFault:  h.probeFault,
	}
	for vpn, ppn := range h.pageMap {
		f.pageMap[vpn] = ppn
	}
	return f
}

// Reboot installs a fresh random virtual→physical hugepage mapping and
// clears the caches, emulating a machine reboot.
func (h *Hierarchy) Reboot(bootID uint64) {
	h.pageRng = stats.NewRNG(bootID*0x9e3779b97f4a7c15 + 1)
	h.pageMap = map[uint64]uint64{}
	h.tlb = [tlbEntries]tlbEntry{}
	h.nextPPN = 0
	h.Flush()
}

// Flush clears all cache levels (but keeps the page mapping).
func (h *Hierarchy) Flush() {
	h.l1.reset()
	h.l2.reset()
	h.l3.reset()
}

// ResetCounters zeroes the counters.
func (h *Hierarchy) ResetCounters() { h.Stats = Counters{} }

// translate maps a virtual address to a physical one through the hugepage
// table, allocating a random physical page on first touch.
func (h *Hierarchy) translate(vaddr uint64) uint64 {
	if paddr, ok := h.cachedTranslation(vaddr); ok {
		return paddr
	}
	return h.walkPageMap(vaddr)
}

// cachedTranslation is the call-free half of translate, small enough to
// inline into Access.
func (h *Hierarchy) cachedTranslation(vaddr uint64) (uint64, bool) {
	vpn := vaddr >> h.pageBits
	e := &h.tlb[vpn%tlbEntries]
	return e.base | vaddr&h.pageMask, e.key == vpn+1
}

// walkPageMap translates through the page table proper and leaves the
// mapping in the translation cache.
func (h *Hierarchy) walkPageMap(vaddr uint64) uint64 {
	vpn := vaddr >> h.pageBits
	ppn, ok := h.pageMap[vpn]
	if !ok {
		// Random physical page, unique per virtual page.
		ppn = (h.pageRng.Uint64() << 8) | h.nextPPN
		h.nextPPN++
		h.pageMap[vpn] = ppn
	}
	base := ppn << h.pageBits
	h.tlb[vpn%tlbEntries] = tlbEntry{key: vpn + 1, base: base}
	return base | vaddr&h.pageMask
}

func mix(v, key uint64) uint64 {
	v *= key
	v ^= v >> 29
	v *= 0xff51afd7ed558ccd
	v ^= v >> 32
	return v
}

// l3Set computes the hidden L3 (slice, set) index for a physical line
// address. The hash decomposes as f(in-page bits) XOR g(page bits): the
// in-page component is a stable function, and the page component is a
// constant XOR within each hugepage — the structure that makes the
// paper's cross-reboot consistency filtering meaningful.
func (h *Hierarchy) l3Set(pline uint64) int {
	f := mix(pline&h.pageLineMask, h.secretF)
	g := mix(pline>>h.pageLineShift, h.secretG)
	return int((f ^ g) & h.l3Mask)
}

// Access simulates one memory access of the given size at a virtual
// address, updating counters, and returns the serving level and its cycle
// cost. Accesses spanning a line boundary touch both lines (costs sum,
// the slower level is reported).
func (h *Hierarchy) Access(vaddr uint64, size uint8, write bool) (Level, uint64) {
	line := vaddr &^ h.lineMask
	last := (vaddr + uint64(size) - 1) &^ h.lineMask
	var (
		slowest Level
		cycles  uint64
	)
	for {
		paddr, ok := h.cachedTranslation(line)
		if !ok {
			paddr = h.walkPageMap(line)
		}
		pline := paddr >> h.lineShift
		// Tag 0 means "empty way"; offset all line tags by +1 to disambiguate.
		lvl, evicted := h.touch(pline+1, h.l1.index(pline), h.l2.index(pline), -1)
		h.Stats.Accesses++
		switch lvl {
		case L1:
			h.Stats.L1Hits++
			h.obs.l1Hits.Inc()
		case L2:
			h.Stats.L2Hits++
			h.obs.l2Hits.Inc()
		case L3:
			h.Stats.L3Hits++
			h.obs.l3Hits.Inc()
		default:
			h.Stats.DRAM++
			h.obs.dram.Inc()
			if evicted {
				h.obs.l3Evictions.Inc()
			}
		}
		cycles += h.lat[lvl]
		if lvl > slowest {
			slowest = lvl
		}
		line += h.lineMask + 1
		if line > last {
			return slowest, cycles
		}
	}
}

// touch is the per-line hit/miss/fill sequence, the one body behind
// Access, InjectPacket and ProbeBatch: it returns the serving level and
// whether the fill evicted an L3 line. s1 and s2 are the line's L1 and L2
// sets; s3 is its contention set, or negative to have the hidden hash
// computed only if the line misses L1 and L2.
func (h *Hierarchy) touch(tag uint64, s1, s2, s3 int) (Level, bool) {
	if h.l1.hit(s1, tag) {
		return L1, false
	}
	if h.l2.hit(s2, tag) {
		h.l1.fill(s1, tag)
		return L2, false
	}
	// An L1 or L2 hit deliberately leaves the line's L3 recency stale
	// (DESIGN.md decision 9).
	if s3 < 0 {
		s3 = h.l3Set(tag - 1)
	}
	if h.l3.hit(s3, tag) {
		h.l2.fill(s2, tag)
		h.l1.fill(s1, tag)
		return L3, false
	}
	return DRAM, h.miss(tag, s1, s2, s3)
}

// miss fills a line resident nowhere into every level and reports
// whether that evicted an L3 line; the L3 is inclusive, so an L3
// eviction back-invalidates L1 and L2.
func (h *Hierarchy) miss(tag uint64, s1, s2, s3 int) bool {
	evicted := h.l3.fill(s3, tag)
	if evicted != 0 {
		ep := evicted - 1
		h.l1.invalidate(h.l1.index(ep), evicted)
		h.l2.invalidate(h.l2.index(ep), evicted)
	}
	h.l2.fill(s2, tag)
	h.l1.fill(s1, tag)
	return evicted != 0
}

// InjectPacket emulates DDIO: the NIC writes the arriving packet's header
// lines straight into the L3 (and, for our single-queue model, warms them
// through to L1 as drivers touch descriptors), so the first header access
// does not pay a compulsory DRAM miss. No cycles are charged to the NF.
func (h *Hierarchy) InjectPacket(vaddr uint64, length int) {
	end := vaddr + uint64(length)
	// DDIO placement is not an NF memory access: preserve the counters.
	saved := h.Stats
	for line := vaddr &^ h.lineMask; line < end; line += h.lineMask + 1 {
		h.Access(line, 1, true)
	}
	h.Stats = saved
}

// ProbeTime measures the cost, in cycles, of sequentially reading every
// address in addrs, rounds times, emulating a pointer-chase probe loop.
// Caches are flushed first so measurements are reproducible; the first
// (cold) round is excluded from the returned time, like a warm-up pass.
func (h *Hierarchy) ProbeTime(addrs []uint64, rounds int) uint64 {
	return h.ProbeBatch([][]uint64{addrs}, rounds)[0]
}

// ProbeBatch measures every probe set in sets as ProbeTime would, one
// after another, and returns the per-set timings. The batch form is the
// discovery hot path: obs counters are accumulated locally and flushed
// once, the probe budget is charged once for the whole batch (the same
// total ProbeTime would charge per call, and charges are commutative
// atomic adds, so the accounting is call-shape invariant), and the
// per-address translation and set-index work is done once per set
// instead of once per access. A one-round probe whose lines are
// distinct and fit their contention sets is counted rather than
// simulated (countProbe). Timings, counters and the cache state left
// behind are bit-identical to looping ProbeTime: the flush/warm-up/round
// access sequence is unchanged, or, when counted, computed exactly.
func (h *Hierarchy) ProbeBatch(sets [][]uint64, rounds int) []uint64 {
	if rounds < 1 {
		rounds = 1
	}
	var lineReads uint64
	for _, addrs := range sets {
		lineReads += uint64(len(addrs) * (rounds + 1))
	}
	h.obs.probeCalls.Add(uint64(len(sets)))
	h.obs.probeLineReads.Add(lineReads)
	h.probeBudget.Charge(lineReads)

	out := make([]uint64, len(sets))
	var served [DRAM + 1]uint64 // line reads by serving level
	var evictions, counted uint64
	for i, addrs := range sets {
		out[i] = h.probeSet(addrs, rounds, &served, &evictions, &counted)
	}
	h.obs.l1Hits.Add(served[L1])
	h.obs.l2Hits.Add(served[L2])
	h.obs.l3Hits.Add(served[L3])
	h.obs.dram.Add(served[DRAM])
	h.obs.l3Evictions.Add(evictions)
	h.obs.probesCounted.Add(counted)
	return out
}

// probeSet times one probe set. It differs from a loop of Access only
// in where the indices and tallies come from: indices are computed once
// per address, tallies land in served, evictions and counted (NF-visible
// Stats are never touched, matching the save/restore the scalar path
// used).
func (h *Hierarchy) probeSet(addrs []uint64, rounds int, served *[DRAM + 1]uint64, evictions, counted *uint64) uint64 {
	h.Flush()
	if cap(h.scratch) < len(addrs) {
		h.scratch = make([]probeLine, len(addrs))
	}
	lines := h.scratch[:len(addrs)]
	// First-touch page allocation happens here in address order — the
	// same order the scalar warm-up pass would allocate in.
	for i, a := range addrs {
		pline := h.translate(a&^h.lineMask) >> h.lineShift
		lines[i] = probeLine{
			tag: pline + 1,
			s1:  int32(h.l1.index(pline)),
			s2:  int32(h.l2.index(pline)),
			s3:  int32(h.l3Set(pline)),
		}
	}
	total, ok := uint64(0), false
	if rounds == 1 {
		total, ok = h.countProbe(lines, served)
	}
	if ok {
		*counted++
	} else {
		total = h.simulateProbe(lines, rounds, served, evictions)
	}
	if h.probeFault != nil {
		total = h.probeFault(addrs, total)
	}
	return total
}

// simulateProbe runs the warm-up pass and rounds timed passes over lines
// through the caches, one line read at a time, and returns the timed
// passes' cycles. The caches must be empty.
func (h *Hierarchy) simulateProbe(lines []probeLine, rounds int, served *[DRAM + 1]uint64, evictions *uint64) uint64 {
	var total uint64
	for r := 0; r <= rounds; r++ {
		for i := range lines {
			p := &lines[i]
			var lvl Level
			var evicted bool
			if r == 0 && !h.l3.holds(int(p.s3), p.tag) {
				// The warm-up pass starts from empty caches, so most of
				// its lines are in no level: the L3 is inclusive, so
				// absence there means absence in L1 and L2 too, and the
				// miss path is all touch would do.
				lvl, evicted = DRAM, h.miss(p.tag, int(p.s1), int(p.s2), int(p.s3))
			} else {
				lvl, evicted = h.touch(p.tag, int(p.s1), int(p.s2), int(p.s3))
			}
			served[lvl]++
			if evicted {
				*evictions++
			}
			if r > 0 { // round 0 is the excluded warm-up pass
				total += h.lat[lvl]
			}
		}
	}
	return total
}

// countProbe computes what simulateProbe would for one warm-up and one
// timed pass, from per-set counts instead of line reads, when the lines
// are pairwise distinct and no contention set receives more than L3Ways
// of them (DESIGN.md decision 22). Then nothing leaves the L3: the
// warm-up is all DRAM misses without an eviction, and in the timed pass
// a line
//   - hits L1 iff its L1 set holds at most L1Ways probe lines (a cyclic
//     walk over more lines than ways misses every time under LRU);
//   - else hits L2 iff fewer than L2Ways other lines of its L2 set were
//     filled or hit there since its warm-up fill: the set's lines after
//     it in the probe, plus its earlier lines that missed L1 in this
//     pass — all of the set's other lines but the earlier L1 hits;
//   - else hits L3, which still holds every probe line.
//
// It then writes the caches as the simulation leaves them, each set its
// most recently used lines newest first. It returns false, with the
// caches still empty, when the lines do not qualify. The caches must be
// empty on entry.
func (h *Hierarchy) countProbe(lines []probeLine, served *[DRAM + 1]uint64) (uint64, bool) {
	c := &h.counts
	if c.rest == nil {
		*c = newProbeCounts(h.geo)
	}
	w1, w2, w3 := int32(h.l1.ways), int32(h.l2.ways), int32(h.l3.ways)
	// Fit: count the lines per contention set, and stop at the first
	// set that gets one too many. This is checked first because it is
	// the condition that discovery's other probes fail.
	clear(c.in3)
	for i := range lines {
		p := &lines[i]
		if c.in3[p.s3]++; c.in3[p.s3] > w3 {
			return 0, false
		}
	}
	clear(c.rest)
	// The warm-up pass: each line's L3 fill goes to the first free way
	// of its contention set, after the set's earlier lines, which it
	// must not repeat.
	for i := range lines {
		p := &lines[i]
		s := h.l3.tags[p.s3*w3:][:w3]
		k := 0
		for ; s[k] != 0; k++ {
			if s[k] == p.tag {
				for _, q := range lines[:i] {
					clear(h.l3.set(int(q.s3)))
				}
				return 0, false
			}
		}
		s[k] = p.tag
		c.in1[p.s1]++
		c.in2[p.s2]++
	}
	served[DRAM] += uint64(len(lines))

	// The timed pass.
	var total uint64
	for i := range lines {
		p := &lines[i]
		switch {
		case c.in1[p.s1] <= w1:
			p.lvl = L1
			c.hit2[p.s2]++
		case c.in2[p.s2]-1-c.hit2[p.s2] < w2:
			p.lvl = L2
			c.missed2[p.s2]++
		default:
			p.lvl = L3
			c.missed2[p.s2]++
			c.reached3[p.s3]++
		}
		served[p.lvl]++
		total += h.lat[p.lvl]
	}

	// The state left behind, newest first. Every timed access touched
	// L1, so its sets are in timed order. An L2 (L3) set holds first the
	// lines whose timed access reached it, then the rest by warm-up
	// order: the rest take the ways from the set's line count down to
	// the count that reached it, those that reached it the ways below.
	// Ways past a set's end stay empty or are dropped.
	for i := range lines {
		p := &lines[i]
		c.in1[p.s1]--
		if k := c.in1[p.s1]; k < w1 {
			h.l1.tags[p.s1*w1+k] = p.tag
		}
		var k int32
		if p.lvl == L1 {
			c.in2[p.s2]--
			k = c.in2[p.s2]
		} else {
			c.missed2[p.s2]--
			k = c.missed2[p.s2]
		}
		if k < w2 {
			h.l2.tags[p.s2*w2+k] = p.tag
		}
		if p.lvl == L3 {
			c.reached3[p.s3]--
			k = c.reached3[p.s3]
		} else {
			c.in3[p.s3]--
			k = c.in3[p.s3]
		}
		h.l3.tags[p.s3*w3+k] = p.tag
	}
	return total, true
}

// CyclesToNanos converts cycles to nanoseconds at the configured clock.
func (h *Hierarchy) CyclesToNanos(cycles uint64) float64 {
	return float64(cycles) / h.geo.ClockGHz
}

// DebugContentionSet is a test-only backdoor (used by memsim's own tests,
// not by cachemodel) returning the hidden (slice,set) index of a virtual
// address.
func (h *Hierarchy) DebugContentionSet(vaddr uint64) int {
	return h.l3Set(h.translate(vaddr) >> h.lineShift)
}

// String summarizes the geometry.
func (g Geometry) String() string {
	return fmt.Sprintf("L1 %dKiB/%d-way, L2 %dKiB/%d-way, L3 %dKiB/%d-way×%d slices, %d B lines, %d-bit pages",
		g.L1Sets*g.L1Ways*g.LineBytes/1024, g.L1Ways,
		g.L2Sets*g.L2Ways*g.LineBytes/1024, g.L2Ways,
		g.L3Bytes()/1024, g.L3Ways, g.L3Slices, g.LineBytes, g.PageBits)
}
