package memsim

import "castan/internal/stats"

// refHierarchy is the hierarchy as it was before the recency-ordered
// sets: one LRU timestamp per way, a victim found by scanning for the
// first empty way or the minimum stamp, translation through the page map
// on every access, every geometry-derived quantity recomputed per line.
// It is kept test-only as the oracle TestHierarchyMatchesReference and
// FuzzHierarchyTrace hold Hierarchy to: for any call sequence the levels,
// cycles, Stats, tallies and probe timings must be equal.
type refHierarchy struct {
	geo              Geometry
	secretF, secretG uint64

	pageMap map[uint64]uint64
	pageRng *stats.RNG
	nextPPN uint64

	l1, l2, l3 *refCache

	Stats Counters
	// tally counts what Hierarchy reports through its obs counters:
	// every line access including probe and DDIO traffic. Forks share
	// it, as forked hierarchies share their origin's counters.
	tally *refTally
}

type refTally struct {
	Counters
	evictions, probeCalls, probeLineReads uint64
}

type refCache struct {
	sets, ways int
	tags       []uint64 // 0 = empty
	stamp      []uint64
	clock      uint64
}

func newRefCache(sets, ways int) *refCache {
	return &refCache{sets: sets, ways: ways, tags: make([]uint64, sets*ways), stamp: make([]uint64, sets*ways)}
}

func (c *refCache) reset() {
	for i := range c.tags {
		c.tags[i] = 0
		c.stamp[i] = 0
	}
	c.clock = 0
}

func (c *refCache) lookup(set int, line uint64) bool {
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == line {
			c.clock++
			c.stamp[base+w] = c.clock
			return true
		}
	}
	return false
}

func (c *refCache) insert(set int, line uint64) uint64 {
	base := set * c.ways
	victim := base
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == 0 {
			victim = base + w
			break
		}
		if c.stamp[base+w] < c.stamp[victim] {
			victim = base + w
		}
	}
	evicted := c.tags[victim]
	c.tags[victim] = line
	c.clock++
	c.stamp[victim] = c.clock
	return evicted
}

func (c *refCache) invalidate(set int, line uint64) {
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == line {
			c.tags[base+w] = 0
			c.stamp[base+w] = 0
			return
		}
	}
}

func newRef(geo Geometry, seed uint64) *refHierarchy {
	r := stats.NewRNG(seed)
	h := &refHierarchy{
		geo:     geo,
		secretF: r.Uint64() | 1,
		secretG: r.Uint64() | 1,
		l1:      newRefCache(geo.L1Sets, geo.L1Ways),
		l2:      newRefCache(geo.L2Sets, geo.L2Ways),
		l3:      newRefCache(geo.L3Slices*geo.L3SetsPerSlice, geo.L3Ways),
		tally:   &refTally{},
	}
	h.Reboot(seed)
	return h
}

func (h *refHierarchy) Fork() *refHierarchy {
	f := &refHierarchy{
		geo:     h.geo,
		secretF: h.secretF,
		secretG: h.secretG,
		pageMap: make(map[uint64]uint64, len(h.pageMap)),
		pageRng: h.pageRng.Clone(),
		nextPPN: h.nextPPN,
		l1:      newRefCache(h.geo.L1Sets, h.geo.L1Ways),
		l2:      newRefCache(h.geo.L2Sets, h.geo.L2Ways),
		l3:      newRefCache(h.geo.L3Slices*h.geo.L3SetsPerSlice, h.geo.L3Ways),
		tally:   h.tally,
	}
	for vpn, ppn := range h.pageMap {
		f.pageMap[vpn] = ppn
	}
	return f
}

func (h *refHierarchy) Reboot(bootID uint64) {
	h.pageRng = stats.NewRNG(bootID*0x9e3779b97f4a7c15 + 1)
	h.pageMap = map[uint64]uint64{}
	h.nextPPN = 0
	h.Flush()
}

func (h *refHierarchy) Flush() {
	h.l1.reset()
	h.l2.reset()
	h.l3.reset()
}

func (h *refHierarchy) translate(vaddr uint64) uint64 {
	vpn := vaddr >> h.geo.PageBits
	ppn, ok := h.pageMap[vpn]
	if !ok {
		ppn = (h.pageRng.Uint64() << 8) | h.nextPPN
		h.nextPPN++
		h.pageMap[vpn] = ppn
	}
	off := vaddr & ((1 << h.geo.PageBits) - 1)
	return ppn<<h.geo.PageBits | off
}

func refLineShift(g Geometry) int {
	s := 0
	for 1<<s < g.LineBytes {
		s++
	}
	return s
}

func (h *refHierarchy) l3Set(pline uint64) int {
	n := uint64(h.geo.L3Slices * h.geo.L3SetsPerSlice)
	pageLines := uint64(1) << (h.geo.PageBits - refLineShift(h.geo))
	inPage := pline & (pageLines - 1)
	page := pline >> (h.geo.PageBits - refLineShift(h.geo))
	return int((mix(inPage, h.secretF) ^ mix(page, h.secretG)) & (n - 1))
}

func (h *refHierarchy) Access(vaddr uint64, size uint8) (Level, uint64) {
	lb := uint64(h.geo.LineBytes)
	first := vaddr &^ (lb - 1)
	last := (vaddr + uint64(size) - 1) &^ (lb - 1)
	lvl, cyc := h.accessLine(first)
	for line := first + lb; line <= last; line += lb {
		l2, c2 := h.accessLine(line)
		cyc += c2
		if l2 > lvl {
			lvl = l2
		}
	}
	return lvl, cyc
}

func (h *refHierarchy) accessLine(vline uint64) (Level, uint64) {
	h.Stats.Accesses++
	h.tally.Accesses++
	pline := h.translate(vline) >> refLineShift(h.geo)
	tag := pline + 1

	l1set := int(pline % uint64(h.geo.L1Sets))
	if h.l1.lookup(l1set, tag) {
		h.Stats.L1Hits++
		h.tally.L1Hits++
		return L1, h.geo.LatL1
	}
	l2set := int(pline % uint64(h.geo.L2Sets))
	if h.l2.lookup(l2set, tag) {
		h.Stats.L2Hits++
		h.tally.L2Hits++
		h.l1.insert(l1set, tag)
		return L2, h.geo.LatL2
	}
	l3set := h.l3Set(pline)
	if h.l3.lookup(l3set, tag) {
		h.Stats.L3Hits++
		h.tally.L3Hits++
		h.l2.insert(l2set, tag)
		h.l1.insert(l1set, tag)
		return L3, h.geo.LatL3
	}
	h.Stats.DRAM++
	h.tally.DRAM++
	if evicted := h.l3.insert(l3set, tag); evicted != 0 {
		h.tally.evictions++
		ep := evicted - 1
		h.l1.invalidate(int(ep%uint64(h.geo.L1Sets)), evicted)
		h.l2.invalidate(int(ep%uint64(h.geo.L2Sets)), evicted)
	}
	h.l2.insert(l2set, tag)
	h.l1.insert(l1set, tag)
	return DRAM, h.geo.LatDRAM
}

func (h *refHierarchy) InjectPacket(vaddr uint64, length int) {
	lb := uint64(h.geo.LineBytes)
	end := vaddr + uint64(length)
	saved := h.Stats
	for line := vaddr &^ (lb - 1); line < end; line += lb {
		h.accessLine(line)
	}
	h.Stats = saved
}

// ProbeBatch is the scalar probe loop the batched path replaced long ago
// (TestProbeBatchMatchesScalarProbes pinned that step): flush, then
// rounds+1 passes of plain line accesses, the first one untimed, with
// NF-visible Stats saved and restored.
func (h *refHierarchy) ProbeBatch(sets [][]uint64, rounds int) []uint64 {
	if rounds < 1 {
		rounds = 1
	}
	out := make([]uint64, len(sets))
	lb := uint64(h.geo.LineBytes)
	for i, addrs := range sets {
		h.tally.probeCalls++
		h.tally.probeLineReads += uint64(len(addrs) * (rounds + 1))
		h.Flush()
		saved := h.Stats
		for r := 0; r <= rounds; r++ {
			for _, a := range addrs {
				_, cyc := h.accessLine(a &^ (lb - 1))
				if r > 0 {
					out[i] += cyc
				}
			}
		}
		h.Stats = saved
	}
	return out
}
