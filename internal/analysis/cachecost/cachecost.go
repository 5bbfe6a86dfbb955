// Package cachecost runs a Ferdinand-style must/may abstract cache
// analysis over the IR and turns the result into static worst-case cost
// bounds (per block, per function, per acyclic path). Its consumer is
// `castan lint`, which reports the classification; CrossCheck is the
// oracle that holds the must side sound against the simulated hierarchy.
//
// The abstraction works on cache lines with *statically known* virtual
// addresses: the memory-region pass resolves every load/store to a base
// region plus a starting-offset interval, and for globals (laid out at
// fixed addresses) and the packet slot that interval maps to a small set
// of candidate line addresses. Heap regions are excluded — an allocation
// site can execute more than once, so "heap site X, line 3" does not name
// a unique concrete line and treating it as one would be unsound.
//
// The must domain is the age-based one of Ferdinand & Wilhelm: a map from
// line to an upper bound on its replacement age; presence means the line
// is guaranteed resident somewhere in the hierarchy, so an access to it
// can never reach DRAM. Two properties of the simulated hierarchy
// (internal/memsim) force a deliberately conservative instantiation:
//
//   - L1/L2 hits do not refresh a line's L3 recency, and
//   - the L3 is inclusive: an L3 eviction back-invalidates L1 and L2.
//
// Together these mean a line's L3 recency can be arbitrarily stale no
// matter how recently the line was touched, so a single conflicting fill
// may evict it from the whole hierarchy. Soundly, a line therefore enters
// the must cache at age Ways-1 (one possible conflicting fill evicts it),
// and a guaranteed hit — which cannot fill any level — is the only access
// that leaves other lines' ages untouched. Conflict is conservative: with
// the L3 set hash hidden, any two distinct lines may conflict. The may
// domain starts cold at function entry and over-approximates the
// possibly-cached lines, so "always-miss" means a compulsory miss relative
// to a cold entry cache; only the must side is checked by the memsim
// cross-checker (warm inter-packet caches make cold-start misses
// unverifiable).
//
// Joins intersect the must cache (max age) and union the may cache (min
// age). Both domains are finite — candidate lines come from the already
// widened memregion intervals, ages are bounded by Ways — so the RPO
// fixpoint terminates without further widening.
package cachecost

import (
	"fmt"
	"sort"

	"castan/internal/analysis"
	"castan/internal/icfg"
	"castan/internal/ir"
)

// Geometry is the cache shape the analysis assumes.
type Geometry struct {
	// Sets is the number of cache sets when the line→set mapping is the
	// usual modulo indexing. The simulated L3 hashes lines to sets with a
	// hidden function, so production callers pass 0 (mapping unknown: any
	// two distinct lines may conflict, and no conflict is ever certain);
	// tests exercising the age machinery pass a real set count.
	Sets int
	// Ways is the associativity (the age bound of the domains).
	Ways int
	// LineBytes is the cache line size.
	LineBytes int
}

// DefaultGeometry mirrors the simulated L3 (memsim.DefaultGeometry):
// 16 ways, 64-byte lines, hidden set mapping.
func DefaultGeometry() Geometry {
	return Geometry{Sets: 0, Ways: 16, LineBytes: 64}
}

// costParams prices instructions for the worst-case bounds.
type costParams struct {
	// Op supplies per-opcode costs; Op.MemL1 is the always-hit latency.
	Op icfg.CostModel
	// MissPenalty is added to Op.MemL1 for every access not classified
	// always-hit (the DRAM latency delta the searcher also charges).
	MissPenalty uint64
}

// defaultCostParams matches the symbex engine's realized-cost accounting:
// hits at MemL1, everything else at MemL1+206 = the simulated DRAM
// latency.
func defaultCostParams() costParams {
	cm := icfg.DefaultCostModel()
	return costParams{Op: cm, MissPenalty: cm.MemDRAM - cm.MemL1}
}

// Config tunes a run.
type Config struct {
	Geometry Geometry
}

// Class is the static classification of one memory instruction.
type Class uint8

// Classification outcomes.
const (
	Unclassified Class = iota
	AlwaysHit          // guaranteed served above DRAM on every execution
	AlwaysMiss         // guaranteed DRAM under a cold cache at function entry
)

// String returns the class label.
func (c Class) String() string {
	switch c {
	case AlwaysHit:
		return "always-hit"
	case AlwaysMiss:
		return "always-miss"
	}
	return "unclassified"
}

// Stats summarizes the classification of one function's memory
// instructions.
type Stats struct {
	Mem          int // loads + stores
	AlwaysHit    int
	AlwaysMiss   int
	Unclassified int
}

// UnclassifiedRatio is the fraction of memory instructions the analysis
// could not classify (0 for a function without memory instructions).
func (s Stats) UnclassifiedRatio() float64 {
	if s.Mem == 0 {
		return 0
	}
	return float64(s.Unclassified) / float64(s.Mem)
}

// Analysis is the module-level result.
type Analysis struct {
	geo  Geometry
	cost costParams

	class map[*ir.Instr]Class
	refs  map[*ir.Instr]string // "fn/block/idx" for diagnostics
	fns   map[*ir.Func]*funcCost
}

// memOp is the line-level lowering of one memory access.
type memOp struct {
	// lines holds the candidate line addresses, ascending; nil means the
	// address is statically unknown (or heap / possibly out of region).
	lines []uint64
	// definite reports that every candidate line is accessed (the
	// starting offset is a single value, so the footprint is exact).
	definite bool
}

// maxCandLines bounds the per-access candidate enumeration; wider
// intervals degrade to an unknown access.
const maxCandLines = 16

// Run analyzes the module underlying mf. The module must be laid out
// (globals at their final addresses) and mr must come from the same
// module facts.
func Run(mf *analysis.ModuleFacts, mr *analysis.MemRegions, cfg Config) *Analysis {
	if cfg.Geometry.Ways <= 0 {
		cfg.Geometry.Ways = DefaultGeometry().Ways
	}
	if cfg.Geometry.LineBytes <= 0 {
		cfg.Geometry.LineBytes = DefaultGeometry().LineBytes
	}
	a := &Analysis{
		geo:   cfg.Geometry,
		cost:  defaultCostParams(),
		class: map[*ir.Instr]Class{},
		refs:  map[*ir.Instr]string{},
		fns:   map[*ir.Func]*funcCost{},
	}
	ops := a.lowerAccesses(mr)

	// Bottom-up over the acyclic call graph: a function is analyzed after
	// its callees so call sites can apply callee summaries and bounds.
	done := map[*ir.Func]bool{}
	var process func(f *ir.Func)
	process = func(f *ir.Func) {
		if done[f] {
			return
		}
		done[f] = true
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall {
					process(in.Callee)
				}
			}
		}
		fc := a.analyzeFunc(f, mf.Funcs[f], ops)
		a.fns[f] = fc
		a.buildBounds(f, fc)
	}
	for _, name := range mf.FuncNames {
		process(mf.Mod.Funcs[name])
	}
	return a
}

// lowerAccesses maps every load/store to its candidate cache lines.
func (a *Analysis) lowerAccesses(mr *analysis.MemRegions) map[*ir.Instr]memOp {
	lb := uint64(a.geo.LineBytes)
	ops := make(map[*ir.Instr]memOp, len(mr.Accesses))
	for i := range mr.Accesses {
		acc := &mr.Accesses[i]
		in := acc.Block.Instrs[acc.InstrIdx]
		if in.Op != ir.OpLoad && in.Op != ir.OpStore {
			continue // havoc key reads are handled conservatively
		}
		a.refs[in] = fmt.Sprintf("%s/%s/%d", acc.Fn.Name, acc.Block.Name, acc.InstrIdx)
		op := memOp{}
		if base, ok := regionBase(acc.Region); ok && acc.Class == analysis.AccessInExtent {
			size := uint64(acc.Size)
			if size == 0 {
				size = 1
			}
			lo := (base + acc.Lo) &^ (lb - 1)
			hi := (base + acc.Hi + size - 1) &^ (lb - 1)
			if hi >= lo && (hi-lo)/lb < maxCandLines {
				for l := lo; l <= hi; l += lb {
					op.lines = append(op.lines, l)
				}
				op.definite = acc.Lo == acc.Hi
			}
		}
		ops[in] = op
	}
	return ops
}

// regionBase returns the absolute base address of a region with a
// statically known placement. Heap regions have none: an allocation site
// executing twice yields two different bases.
func regionBase(r *analysis.RegionInfo) (uint64, bool) {
	if r == nil {
		return 0, false
	}
	switch r.Kind {
	case analysis.RegionPacket:
		return ir.PacketBase, true
	case analysis.RegionGlobal:
		if r.Global != nil && r.Global.Addr != 0 {
			return r.Global.Addr, true
		}
	}
	return 0, false
}

// mayConflict reports whether distinct lines x and y can contend for the
// same cache set. With the set mapping hidden it always is.
func (a *Analysis) mayConflict(x, y uint64) bool {
	if x == y {
		return false
	}
	if a.geo.Sets > 1 {
		lb := uint64(a.geo.LineBytes)
		if (x/lb)%uint64(a.geo.Sets) != (y/lb)%uint64(a.geo.Sets) {
			return false
		}
	}
	return true
}

// certainConflict reports whether distinct lines x and y are guaranteed
// to map to the same set — provable only under modulo indexing.
func (a *Analysis) certainConflict(x, y uint64) bool {
	if x == y || a.geo.Sets <= 1 {
		return false
	}
	lb := uint64(a.geo.LineBytes)
	return (x/lb)%uint64(a.geo.Sets) == (y/lb)%uint64(a.geo.Sets)
}

// absState is one point of the combined must/may domain.
type absState struct {
	must   map[uint64]int // line → age upper bound; present ⇒ guaranteed resident
	may    map[uint64]int // line → age lower bound; possibly resident
	mayTop bool           // an unknown line may be resident (may = ⊤)
}

func newAbsState() *absState {
	return &absState{must: map[uint64]int{}, may: map[uint64]int{}}
}

func (st *absState) clone() *absState {
	n := &absState{
		must:   make(map[uint64]int, len(st.must)),
		may:    make(map[uint64]int, len(st.may)),
		mayTop: st.mayTop,
	}
	for k, v := range st.must {
		n.must[k] = v
	}
	for k, v := range st.may {
		n.may[k] = v
	}
	return n
}

// join folds other into st: must intersects (max age), may unions (min
// age). Returns whether st changed.
func (st *absState) join(other *absState) bool {
	changed := false
	for l, age := range st.must {
		oage, ok := other.must[l]
		if !ok {
			delete(st.must, l)
			changed = true
			continue
		}
		if oage > age {
			st.must[l] = oage
			changed = true
		}
	}
	for l, oage := range other.may {
		age, ok := st.may[l]
		if !ok || oage < age {
			st.may[l] = oage
			changed = true
		}
	}
	if other.mayTop && !st.mayTop {
		st.mayTop = true
		changed = true
	}
	return changed
}

func (st *absState) equal(other *absState) bool {
	if st.mayTop != other.mayTop || len(st.must) != len(other.must) || len(st.may) != len(other.may) {
		return false
	}
	for l, age := range st.must {
		if o, ok := other.must[l]; !ok || o != age {
			return false
		}
	}
	for l, age := range st.may {
		if o, ok := other.may[l]; !ok || o != age {
			return false
		}
	}
	return true
}

// clobber forgets everything the must side knows and makes every line
// possibly resident — the transfer of an access whose address (or
// footprint) is statically unknown.
func (st *absState) clobber() {
	st.must = map[uint64]int{}
	st.mayTop = true
}

// applyAccess classifies one memory access against st and applies its
// transfer.
func (a *Analysis) applyAccess(st *absState, op memOp) Class {
	if op.lines == nil {
		st.clobber()
		return Unclassified
	}
	hit := true
	for _, l := range op.lines {
		if _, ok := st.must[l]; !ok {
			hit = false
			break
		}
	}
	miss := !st.mayTop
	if miss {
		for _, l := range op.lines {
			if _, ok := st.may[l]; ok {
				miss = false
				break
			}
		}
	}
	if !hit {
		// The access may fill one of the candidate lines into every level;
		// the fill's L3 victim is back-invalidated everywhere, so every
		// must line that may share a set with a candidate ages by one fill
		// (and is evicted once its age reaches Ways).
		for o, age := range st.must {
			for _, l := range op.lines {
				if a.mayConflict(o, l) {
					age++
					if age >= a.geo.Ways {
						delete(st.must, o)
					} else {
						st.must[o] = age
					}
					break
				}
			}
		}
		// A certain miss of a single known line is a certain fill: may
		// lines certainly sharing its set age toward guaranteed eviction.
		if miss && op.definite && len(op.lines) == 1 {
			l := op.lines[0]
			for o, age := range st.may {
				if a.certainConflict(o, l) {
					age++
					if age >= a.geo.Ways {
						delete(st.may, o)
					} else {
						st.may[o] = age
					}
				}
			}
		}
		if op.definite {
			// Every line of a definite access is resident afterwards — at
			// *some* level, hence (inclusion) in the L3, but at a recency
			// that may be as stale as the set allows: the hierarchy never
			// refreshes L3 recency on L1/L2 hits, so insertion age is
			// Ways-1, one conflicting fill short of eviction.
			entry := a.geo.Ways - 1
			for _, l := range op.lines {
				if cur, ok := st.must[l]; !ok || cur > entry {
					st.must[l] = entry
				}
			}
		}
	}
	for _, l := range op.lines {
		if cur, ok := st.may[l]; !ok || cur > 0 {
			st.may[l] = 0
		}
	}
	switch {
	case hit:
		return AlwaysHit
	case miss:
		return AlwaysMiss
	}
	return Unclassified
}

// transferInstr applies one instruction's cache effect to st and returns
// the classification of memory instructions (Unclassified otherwise).
func (a *Analysis) transferInstr(st *absState, in *ir.Instr, ops map[*ir.Instr]memOp) Class {
	switch in.Op {
	case ir.OpLoad, ir.OpStore:
		return a.applyAccess(st, ops[in])
	case ir.OpHavoc:
		// The key read spans a runtime-resolved scratch buffer the
		// memory-region pass does not record; treat it as unknown traffic.
		st.clobber()
	case ir.OpCall:
		a.applyCall(st, in.Callee)
	}
	return Unclassified
}

// applyCall folds a callee summary into the caller state: must lines
// conflicting with anything the callee may touch are evicted, lines the
// callee guarantees resident at return are added, and the callee's
// footprint becomes possibly resident.
func (a *Analysis) applyCall(st *absState, callee *ir.Func) {
	cs := a.fns[callee]
	if cs == nil || cs.footUnknown {
		st.clobber()
		return
	}
	for o := range st.must {
		for l := range cs.footprint {
			if a.mayConflict(o, l) {
				delete(st.must, o)
				break
			}
		}
	}
	// exitMust is computed from an empty entry cache, so it holds in any
	// calling context; a line known both ways keeps the tighter age.
	for l, age := range cs.exitMust {
		if cur, ok := st.must[l]; !ok || cur > age {
			st.must[l] = age
		}
	}
	for l := range cs.footprint {
		if cur, ok := st.may[l]; !ok || cur > 0 {
			st.may[l] = 0
		}
	}
}

// funcCost carries one function's classification summary and cost bounds.
type funcCost struct {
	facts *analysis.Facts
	stats Stats

	// Interprocedural summary.
	footprint   map[uint64]bool // lines the function (incl. callees) may access
	footUnknown bool            // some access has no line-level lowering
	exitMust    map[uint64]int  // lines guaranteed resident at return (empty-entry)

	// Cost bounds (see bounds.go).
	suffix     map[*ir.Block][]bound
	blockBound map[*ir.Block]bound
	residual   map[*ir.Block]bound
	outerLoop  map[*ir.Block]*analysis.Loop
	funcBound  bound
	acyclic    uint64
}

// analyzeFunc runs the fixpoint over one function (entry state: empty
// must, cold may) and derives classifications plus the interprocedural
// summary.
func (a *Analysis) analyzeFunc(f *ir.Func, fa *analysis.Facts, ops map[*ir.Instr]memOp) *funcCost {
	fc := &funcCost{
		facts:      fa,
		footprint:  map[uint64]bool{},
		exitMust:   map[uint64]int{},
		suffix:     map[*ir.Block][]bound{},
		blockBound: map[*ir.Block]bound{},
		residual:   map[*ir.Block]bound{},
		outerLoop:  map[*ir.Block]*analysis.Loop{},
	}
	// The footprint (and its unknown flag) is flow-insensitive.
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpLoad, ir.OpStore:
				op := ops[in]
				if op.lines == nil {
					fc.footUnknown = true
				}
				for _, l := range op.lines {
					fc.footprint[l] = true
				}
			case ir.OpHavoc:
				fc.footUnknown = true
			case ir.OpCall:
				cs := a.fns[in.Callee]
				if cs == nil || cs.footUnknown {
					fc.footUnknown = true
				} else {
					for l := range cs.footprint {
						fc.footprint[l] = true
					}
				}
			}
		}
	}

	// Fixpoint: repeated RPO sweeps until the block in-states stabilize.
	// Both domains are finite and the transfer is monotone, so this
	// terminates; the sweep cap is a safety net that degrades to "no
	// knowledge" rather than looping.
	in := make([]*absState, len(f.Blocks))
	entry := f.Entry()
	in[entry.Index] = newAbsState()
	maxSweeps := 4*len(f.Blocks) + 8
	converged := false
	for sweep := 0; sweep < maxSweeps && !converged; sweep++ {
		converged = true
		for _, b := range fa.RPO {
			if in[b.Index] == nil {
				continue
			}
			out := in[b.Index].clone()
			for _, instr := range b.Instrs {
				a.transferInstr(out, instr, ops)
			}
			for _, s := range b.Succs() {
				if in[s.Index] == nil {
					in[s.Index] = out.clone()
					converged = false
				} else if joinInto(in[s.Index], out) {
					converged = false
				}
			}
		}
	}
	if !converged {
		for i := range in {
			if in[i] != nil {
				in[i] = newAbsState()
				in[i].mayTop = true
			}
		}
	}

	// Final pass: classify every memory instruction against its converged
	// pre-state and join the must cache at every return.
	sawRet := false
	for _, b := range fa.RPO {
		st := in[b.Index].clone()
		for _, instr := range b.Instrs {
			cl := a.transferInstr(st, instr, ops)
			if instr.Op == ir.OpLoad || instr.Op == ir.OpStore {
				a.class[instr] = cl
				fc.stats.Mem++
				switch cl {
				case AlwaysHit:
					fc.stats.AlwaysHit++
				case AlwaysMiss:
					fc.stats.AlwaysMiss++
				default:
					fc.stats.Unclassified++
				}
			}
			if instr.Op == ir.OpRet {
				if !sawRet {
					sawRet = true
					for l, age := range st.must {
						fc.exitMust[l] = age
					}
				} else {
					for l, age := range fc.exitMust {
						oage, ok := st.must[l]
						if !ok {
							delete(fc.exitMust, l)
						} else if oage > age {
							fc.exitMust[l] = oage
						}
					}
				}
			}
		}
	}
	if !sawRet {
		fc.exitMust = map[uint64]int{}
	}
	return fc
}

// joinInto is absState.join with the receiver spelled out (kept separate
// so the fixpoint loop reads as "join predecessor out into successor in").
func joinInto(dst, src *absState) bool { return dst.join(src) }

// ClassOf returns the classification of a memory instruction
// (Unclassified for anything the analysis did not see).
func (a *Analysis) ClassOf(in *ir.Instr) Class { return a.class[in] }

// Ref returns the "fn/block/idx" reference of a classified memory
// instruction, for diagnostics.
func (a *Analysis) Ref(in *ir.Instr) string { return a.refs[in] }

// FuncStats returns the classification summary of f.
func (a *Analysis) FuncStats(f *ir.Func) Stats {
	fc := a.fns[f]
	if fc == nil {
		return Stats{}
	}
	return fc.stats
}

// FuncNames returns the analyzed function names, sorted.
func (a *Analysis) FuncNames() []string {
	names := make([]string, 0, len(a.fns))
	for f := range a.fns {
		names = append(names, f.Name)
	}
	sort.Strings(names)
	return names
}
