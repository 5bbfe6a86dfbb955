// Package cachemodel reverse-engineers and exploits the DUT's L3 cache
// behaviour, implementing §3.2 and §3.3 of the paper.
//
// Discovery treats the memory hierarchy as a black box that can only be
// probed by timing pointer-chase loops: it grows an address set until the
// probe time jumps by more than a contention threshold δ (the grown set
// then holds α+1 addresses of some contention set C), shrinks it to
// exactly those α+1 addresses, sweeps the remaining pool for further
// members of C, and repeats from where the jump was, the prefix before
// it being clean of every set; it then filters the result for
// consistency across simulated reboots. The resulting Model is what
// CASTAN's symbolic pointer concretization uses to pick addresses that
// maximize cache contention.
package cachemodel

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"castan/internal/budget"
	"castan/internal/parallel"
	"castan/internal/stats"
)

// Sentinel outcomes of Discover, distinguishable with errors.Is so the
// pipeline can tell a benign empty result from a suspicious one from a
// budget cut:
var (
	// ErrNoSets means the pool produced no contention sets at all — the
	// normal outcome for NFs whose tables fit in cache.
	ErrNoSets = errors.New("cachemodel: no contention sets found")
	// ErrInconsistent means sets were found but none survived the
	// cross-reboot consistency filter — a suspicious outcome that in the
	// noise-free simulator points at perturbed probe timings.
	ErrInconsistent = errors.New("cachemodel: all sets rejected by consistency filter")
	// ErrBudget means the discovery budget ran out. A partial
	// (unfiltered) model accompanies it when any set was found first.
	ErrBudget = errors.New("cachemodel: discovery budget exhausted")
)

// Prober is the timing side-channel the discovery tool is allowed to use.
// *memsim.Hierarchy satisfies it.
type Prober interface {
	// ProbeBatch returns, per probe set, the cycles needed to read all
	// its addresses sequentially, rounds times, after a warm-up pass.
	// Each set is timed from a flushed cache, exactly as if it were
	// probed alone.
	ProbeBatch(sets [][]uint64, rounds int) []uint64
	// Reboot re-randomizes the virtual→physical mapping.
	Reboot(bootID uint64)
}

// ContentionSet is a group of line addresses that compete for the same L3
// ways: bringing in more than Assoc of them evicts.
type ContentionSet struct {
	Addrs []uint64
}

// Model is the discovered cache model handed to CASTAN.
type Model struct {
	Assoc     int
	LineBytes int
	Sets      []ContentionSet

	setOf map[uint64]int // line address -> index into Sets
}

// SetOf returns the contention-set index of a line address, or -1 if the
// address was not covered by discovery.
func (m *Model) SetOf(lineAddr uint64) int {
	if idx, ok := m.setOf[lineAddr]; ok {
		return idx
	}
	return -1
}

// Reindex rebuilds the address index after the Sets have been assembled
// or edited by hand (Discover and the persistence loader call it
// themselves).
func (m *Model) Reindex() { m.buildIndex() }

// buildIndex (re)builds the address index.
func (m *Model) buildIndex() {
	m.setOf = make(map[uint64]int)
	for i, s := range m.Sets {
		for _, a := range s.Addrs {
			m.setOf[a] = i
		}
	}
}

// DiscoverConfig tunes discovery.
type DiscoverConfig struct {
	// Pool is the candidate line-aligned addresses (e.g. lines of the NF's
	// tables). Discovery mutates a copy.
	Pool []uint64
	// Assoc is the (publicly documented) L3 associativity α.
	Assoc int
	// LineBytes is the cache line size.
	LineBytes int
	// LatL3 and LatDRAM are the publicly documented latencies used to set
	// the contention threshold δ.
	LatL3, LatDRAM uint64
	// MaxSets stops discovery after this many contention sets (0 = all
	// that can be found).
	MaxSets int
	// Seed drives the shuffled growth order.
	Seed uint64
	// Workers bounds the fan-out of the candidate sweep and the
	// consistency filter (0 = GOMAXPROCS). Discovery output is identical
	// at every worker count.
	Workers int
	// Fork, when set, returns an independent prober sharing the hidden
	// state and current address mapping of p (e.g. memsim's
	// Hierarchy.Fork). Without it every probe runs on p, regardless of
	// Workers, since concurrent probes on one prober would perturb each
	// other.
	Fork func() Prober
	// Budget, when set, bounds discovery effort. Probe ticks are charged
	// by the prober itself (memsim.SetBudget); Discover checks for
	// exhaustion between findOne iterations — a deterministic
	// orchestration point — and stops there, returning whatever partial
	// model exists alongside ErrBudget.
	Budget *budget.Stage
	// Progress, when set, is called after each findOne iteration with the
	// number of contention sets discovered so far and the pool addresses
	// still unclassified. It runs on Discover's goroutine between
	// iterations — the same deterministic orchestration point as the
	// budget check — so callers may publish telemetry from it without
	// breaking worker-count invariance.
	Progress func(setsFound, poolLeft int)
}

// rounds is the number of timed probe rounds after the warm-up pass.
// Every detection threshold scales with it, so any value classifies
// identically in the noise-free simulator; one is the cheapest, and its
// margins still dwarf the ±127-tick jitter the fault-injection harness
// can add.
const rounds = 1

// reboots is the number of simulated reboots the consistency filter
// re-verifies every discovered set across.
const reboots = 3

// Discover runs the §3.2 pipeline and returns the model.
func Discover(p Prober, cfg DiscoverConfig) (*Model, error) {
	if cfg.Assoc <= 0 {
		return nil, fmt.Errorf("cachemodel: Assoc must be positive")
	}
	if len(cfg.Pool) == 0 {
		return nil, fmt.Errorf("cachemodel: empty pool")
	}
	d := &discoverer{p: p, cfg: cfg, rng: stats.NewRNG(cfg.Seed ^ 0xca57a)}
	pool := append([]uint64(nil), cfg.Pool...)
	d.rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })

	// Pre-fault every candidate once, in pool order. Lazy first touches
	// would otherwise happen in probe order anyway — the grow and sweep
	// phases walk the pool front to back — so this does not change any
	// probe result; it guarantees that forked probers never allocate
	// mappings of their own, which is what makes sweep results
	// independent of how candidates are divided among workers.
	d.probe(pool)
	d.forks = []Prober{p}
	if w := parallel.Workers(cfg.Workers); w > 1 && cfg.Fork != nil {
		d.forks = make([]Prober, w)
		for i := range d.forks {
			d.forks[i] = cfg.Fork()
		}
	}

	model := &Model{Assoc: cfg.Assoc, LineBytes: cfg.LineBytes}
	var budgetReason string
	clean := 0 // pool[:clean] holds at most α lines of every set
	for cfg.MaxSets == 0 || len(model.Sets) < cfg.MaxSets {
		if reason, ok := cfg.Budget.Exhausted(); ok {
			budgetReason = reason
			break
		}
		trigger := d.grow(pool, clean)
		if trigger < 0 {
			break
		}
		var set []uint64
		set, pool, clean = d.findOne(pool, trigger)
		if set == nil {
			continue // a noisy jump: only its trigger was dropped
		}
		model.Sets = append(model.Sets, ContentionSet{Addrs: set})
		if cfg.Progress != nil {
			cfg.Progress(len(model.Sets), len(pool))
		}
	}
	if budgetReason != "" && len(model.Sets) == 0 {
		return nil, fmt.Errorf("%w (%s)", ErrBudget, budgetReason)
	}
	if len(model.Sets) == 0 {
		return nil, fmt.Errorf("%w (pool of %d)", ErrNoSets, len(cfg.Pool))
	}
	if budgetReason == "" {
		// The consistency filter costs reboots probes per set, so a
		// budget-cut run skips it and hands back the unfiltered partial
		// model — the caller already knows (via ErrBudget) to treat it as
		// degraded.
		d.filterConsistent(model)
		if len(model.Sets) == 0 {
			return nil, ErrInconsistent
		}
	}
	for i := range model.Sets {
		sort.Slice(model.Sets[i].Addrs, func(a, b int) bool {
			return model.Sets[i].Addrs[a] < model.Sets[i].Addrs[b]
		})
	}
	model.buildIndex()
	if budgetReason != "" {
		return model, fmt.Errorf("%w (%s)", ErrBudget, budgetReason)
	}
	return model, nil
}

type discoverer struct {
	p     Prober
	cfg   DiscoverConfig
	rng   *stats.RNG
	forks []Prober // per-worker probers; just p when probing is sequential
}

func (d *discoverer) probe(s []uint64) uint64 {
	return d.probeOn(d.p, s)
}

func (d *discoverer) probeOn(p Prober, s []uint64) uint64 {
	if len(s) == 0 {
		return 0
	}
	return p.ProbeBatch([][]uint64{s}, rounds)[0]
}

// probeMany shards a batch of independent probe sets across the probers.
// Results land in input order, so the answer is identical at every
// worker count.
func (d *discoverer) probeMany(sets [][]uint64) []uint64 {
	out := make([]uint64, len(sets))
	parallel.Shards(len(d.forks), len(sets), func(shard, lo, hi int) {
		copy(out[lo:hi], d.forks[shard].ProbeBatch(sets[lo:hi], rounds))
	})
	return out
}

// thresholds: growDelta detects "a chunk addition caused contention";
// memberDelta detects "removing this address removed contention";
// groupDelta detects "removing this whole group removed contention";
// batchDelta detects "adding this candidate batch added contention";
// sweepDelta detects "swapping this address kept contention".
func (d *discoverer) growDelta(chunk int) uint64 {
	signal := rounds * uint64(d.cfg.Assoc+1) * (d.cfg.LatDRAM - d.cfg.LatL3) / 2
	noise := rounds * uint64(chunk) * d.cfg.LatL3
	return signal + noise
}

// maxGrowChunk bounds the geometric chunk growth: the noise term of
// growDelta scales with the chunk while the contention signal does not,
// so beyond signal/(rounds×LatL3) lines per chunk a real jump could
// drown in the chunk's own (over-estimated) hit cost.
func (d *discoverer) maxGrowChunk() int {
	signal := uint64(d.cfg.Assoc+1) * (d.cfg.LatDRAM - d.cfg.LatL3) / 2
	max := int(signal / d.cfg.LatL3)
	if max < 2 {
		max = 2
	}
	return max
}

func (d *discoverer) memberDelta() uint64 {
	return rounds * uint64(d.cfg.Assoc) * (d.cfg.LatDRAM - d.cfg.LatL3) / 2
}

// groupDelta is the collapse threshold for removing a whole group of n
// addresses at once: strays only take their own hit cost (≤ n×LatL3 per
// round) with them, while losing a member collapses the whole set's
// thrashing — the half-gap margin separates the two.
func (d *discoverer) groupDelta(n int) uint64 {
	return rounds * (uint64(n)*d.cfg.LatL3 + (d.cfg.LatDRAM-d.cfg.LatL3)/2)
}

// igniteDelta is the detection threshold for adding a batch of n
// candidates to a core of exactly α members: the core fits the set, so
// every core line is an L3 hit, unless the batch holds one more member —
// then all α+1 lines thrash to DRAM. Strays add at most their own hit
// cost (n×LatL3 per round); the ignition signal is half the full-set
// flip, far above it.
func (d *discoverer) igniteDelta(n int) uint64 {
	return rounds * (uint64(n)*d.cfg.LatL3 + uint64(d.cfg.Assoc+1)*(d.cfg.LatDRAM-d.cfg.LatL3)/2)
}

func (d *discoverer) sweepDelta() uint64 {
	return rounds * (d.cfg.LatDRAM + d.cfg.LatL3) / 2
}

// findOne runs steps (2) and (3) of §3.2 on pool[:trigger+1]. It returns
// the members of one contention set, the pool without them, and how many
// of rest's leading addresses preceded the trigger: at most α lines of
// any set, so the next grow starts there. A jump that shrinks below α+1
// members was noise: members is nil and only the trigger is dropped.
func (d *discoverer) findOne(pool []uint64, trigger int) (members, rest []uint64, clean int) {
	members = d.shrink(pool[:trigger+1])
	if len(members) < d.cfg.Assoc+1 {
		return nil, slices.Concat(pool[:trigger], pool[trigger+1:]), trigger
	}
	members = d.sweep(pool, members)

	inSet := map[uint64]bool{}
	for _, a := range members {
		inSet[a] = true
	}
	rest = make([]uint64, 0, len(pool)-len(members))
	for i, a := range pool {
		if !inSet[a] {
			rest = append(rest, a)
			if i < trigger {
				clean++
			}
		}
	}
	return members, rest, clean
}

// grow is step 1: extend a pool prefix until its probe time jumps by
// more than δ, then binary-search the triggering index. Chunks grow
// geometrically (probing a prefix costs its whole length, so constant
// chunks make the phase quadratic) but are capped at maxGrowChunk so the
// jump cannot hide inside the chunk-size noise term of growDelta. A
// resumed grow probes the clean prefix once as its baseline, then
// extends it by capped chunks.
func (d *discoverer) grow(pool []uint64, clean int) int {
	chunk := d.cfg.Assoc / 2
	if chunk < 2 {
		chunk = 2
	}
	maxChunk := d.maxGrowChunk()
	prev := uint64(0)
	if clean > 0 && clean < len(pool) {
		prev, chunk = d.probe(pool[:clean]), maxChunk
	}
	for i := clean; i < len(pool); {
		end := i + chunk
		if end > len(pool) {
			end = len(pool)
		}
		cur := d.probe(pool[:end])
		if cur > prev && cur-prev > d.growDelta(end-i) {
			// Binary-search the smallest prefix length m in (i, end] whose
			// probe time jumps; the triggering address is pool[m-1].
			jumps := func(m int) bool {
				t := d.probe(pool[:m])
				return t > prev && t-prev > d.growDelta(m-i)
			}
			lo, hi := i, end // jumps(lo) false (empty delta), jumps(hi) true
			for hi-lo > 1 {
				mid := (lo + hi) / 2
				if jumps(mid) {
					hi = mid
				} else {
					lo = mid
				}
			}
			return hi - 1
		}
		prev = cur
		i = end
		if chunk < maxChunk {
			chunk *= 2
			if chunk > maxChunk {
				chunk = maxChunk
			}
		}
	}
	return -1
}

// shrink is step 2: reduce the triggering prefix to exactly the ≥ α+1
// members of C it contains. Instead of one probe per element (quadratic
// in the prefix), each pass partitions the set into α+2 groups, probes
// all "set minus group" variants as one batch, and removes every group
// whose absence kept the contention alive — those groups provably held
// no member, and with at least α+1 members spread over α+2 groups the
// pigeonhole principle promises progress in the common case. When no
// group is removable, one pass of the original per-element scan (§3.2
// step 2) finishes the remainder. Refining the partition first only
// adds reads: on lpm-dl1 and both rings every refined shrink still
// ended in the scan.
func (d *discoverer) shrink(prefix []uint64) []uint64 {
	s := append([]uint64(nil), prefix...)
	for len(s) > d.cfg.Assoc+1 {
		k := d.cfg.Assoc + 2
		if k > len(s) {
			k = len(s)
		}
		full := d.probe(s)
		// Group g is s[bound[g]:bound[g+1]]; probe variant g is s minus
		// group g.
		variants := make([][]uint64, k)
		for g := 0; g < k; g++ {
			lo, hi := g*len(s)/k, (g+1)*len(s)/k
			variants[g] = slices.Concat(s[:lo], s[hi:])
		}
		times := d.probeMany(variants)
		kept := make([]uint64, 0, len(s))
		removed := 0
		for g := 0; g < k; g++ {
			lo, hi := g*len(s)/k, (g+1)*len(s)/k
			collapsed := full > times[g] && full-times[g] > d.groupDelta(hi-lo)
			if collapsed {
				kept = append(kept, s[lo:hi]...) // holds a member: keep
			} else {
				removed += hi - lo
			}
		}
		if removed > 0 {
			s = kept
			continue
		}
		// No group is removable: one pass of per-element elimination.
		for i := 0; i < len(s); {
			without := slices.Concat(s[:i], s[i+1:])
			t := d.probe(without)
			if full > t && full-t > d.memberDelta() {
				i++ // member of C: keep it
			} else {
				s, full = without, t // stray: drop permanently
			}
		}
		break
	}
	return s
}

// sweep is step 3: find the remaining members of C in the rest of the
// pool. Candidates are group-tested in batches first: a core of exactly
// α members plus a batch of ≤ α candidates stays all-L3-hit unless the
// batch holds another member of C, which ignites full-set thrashing — a
// signal α+1 DRAM-class misses wide that no stray hit cost can mask (a
// batch of ≤ α candidates can never complete a *different* set, so
// there are no other ignition sources). Only flagged batches pay the
// per-candidate swap probes of the original algorithm. Probes are
// mutually independent (each flushes, every page is pre-faulted), so
// batches shard across forked probers and the hit list is applied in
// pool order, keeping member order identical to a sequential sweep at
// every worker count.
func (d *discoverer) sweep(pool, members []uint64) []uint64 {
	inSet := map[uint64]bool{}
	for _, a := range members {
		inSet[a] = true
	}
	core := members[:d.cfg.Assoc] // exactly α: fits its set, hits after warm-up
	base := d.probe(members)
	baseCore := d.probe(core)
	cands := make([]uint64, 0, len(pool)-len(members))
	for _, a := range pool {
		if !inSet[a] {
			cands = append(cands, a)
		}
	}

	batchSize := d.cfg.Assoc // one short of completing another set
	if batchSize < 1 {
		batchSize = 1
	}
	nBatches := (len(cands) + batchSize - 1) / batchSize
	batches := make([][]uint64, nBatches)
	for b := range batches {
		lo := b * batchSize
		hi := lo + batchSize
		if hi > len(cands) {
			hi = len(cands)
		}
		probe := make([]uint64, 0, len(core)+hi-lo)
		probe = append(probe, core...)
		probe = append(probe, cands[lo:hi]...)
		batches[b] = probe
	}
	times := d.probeMany(batches)

	// Per-candidate swap retests, only for flagged batches.
	var retest []int
	for b, t := range times {
		if n := len(batches[b]) - len(core); t > baseCore && t-baseCore > d.igniteDelta(n) {
			for i := b * batchSize; i < b*batchSize+n; i++ {
				retest = append(retest, i)
			}
		}
	}
	hits := make([]bool, len(cands))
	sweepOne := func(p Prober, swap []uint64, i int) bool {
		swap[0] = cands[i]
		t := d.probeOn(p, swap)
		return t+d.sweepDelta() > base
	}
	parallel.Shards(len(d.forks), len(retest), func(shard, lo, hi int) {
		swap := append([]uint64(nil), members...)
		for j := lo; j < hi; j++ {
			hits[retest[j]] = sweepOne(d.forks[shard], swap, retest[j])
		}
	})
	for i, hit := range hits {
		if hit {
			members = append(members, cands[i])
		}
	}
	return members
}

// filterConsistent re-verifies every discovered set across simulated
// reboots, dropping sets whose members stop contending (§3.2's
// cross-reboot filter). Within a set, members that individually fail are
// removed; a set shrinking below α+1 is dropped entirely.
func (d *discoverer) filterConsistent(m *Model) {
	// Each set's verdict depends only on (set index, reboot round): Reboot
	// fully resets a prober's mapping and caches, so the per-set loop
	// shards across forked probers without any cross-talk.
	ok := make([]bool, len(m.Sets))
	parallel.Shards(len(d.forks), len(m.Sets), func(shard, lo, hi int) {
		for si := lo; si < hi; si++ {
			ok[si] = d.consistentAcrossReboots(d.forks[shard], si, m.Sets[si])
		}
	})
	kept := m.Sets[:0]
	for si, set := range m.Sets {
		if ok[si] {
			kept = append(kept, set)
		}
	}
	d.p.Reboot(d.cfg.Seed) // restore a defined mapping
	m.Sets = kept
}

// consistentAcrossReboots re-verifies one set's contention signature on p
// across the simulated reboots.
func (d *discoverer) consistentAcrossReboots(p Prober, si int, set ContentionSet) bool {
	for r := 1; r <= reboots; r++ {
		p.Reboot(d.cfg.Seed + uint64(si*1000+r))
		core := set.Addrs
		if len(core) > d.cfg.Assoc+1 {
			core = core[:d.cfg.Assoc+1]
		}
		t := d.probeOn(p, core)
		// Contention signature: substantially more than all-hit time.
		allHit := rounds * uint64(len(core)) * d.cfg.LatL3
		if t < allHit+d.memberDelta() {
			return false
		}
	}
	return true
}
