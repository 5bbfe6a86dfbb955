package symbex

import (
	"container/heap"
	"fmt"

	"castan/internal/analysis/cachecost"
	"castan/internal/analysis/taint"
	"castan/internal/analysis/vrange"
	"castan/internal/budget"
	"castan/internal/cachemodel"
	"castan/internal/expr"
	"castan/internal/icfg"
	"castan/internal/interp"
	"castan/internal/ir"
	"castan/internal/obs"
	"castan/internal/solver"
)

// Config tunes the exploration.
type Config struct {
	// Entry is the per-packet entry point, typically "nf_process"
	// (pktAddr, pktLen) -> action.
	Entry string
	// NPackets is the length of the synthesized adversarial sequence.
	NPackets int
	// PacketLen is the number of symbolic bytes per packet (the headers
	// the NF can observe). Defaults to 64.
	PacketLen int
	// MaxStates bounds how many state suspensions the searcher processes
	// (the "time budget" of §3.1). Defaults to 20000.
	MaxStates int
	// MaxLoopIters bounds consecutive symbolic iterations of one loop
	// head within a state. Defaults to 64.
	MaxLoopIters int
}

const (
	// stepChunk is how many instructions a state may run before the
	// searcher reconsiders priorities.
	stepChunk = 2048
	// solverSteps is the per-query budget for full feasibility checks
	// (local repair handles the common cases first).
	solverSteps = 8000
	// localSolverSteps is the per-query budget for localRepair's small
	// substituted problems.
	localSolverSteps = 20000
	// keepBest is how many completed states to retain.
	keepBest = 8
	// maxPinned bounds the substitution cache (Engine.pinned). An entry
	// is a few KB of expression nodes; a 6-packet run makes a thousand or
	// two, a paper-size run of a tree NF would make hundreds of thousands.
	maxPinned = 1 << 14
	// stopAfterDone halts exploration once this many states have consumed
	// all N packets — in best-first order the earliest completions follow
	// the highest-cost paths.
	stopAfterDone = 16
)

func (c *Config) fill() {
	if c.Entry == "" {
		c.Entry = "nf_process"
	}
	if c.NPackets <= 0 {
		c.NPackets = 1
	}
	if c.PacketLen <= 0 {
		c.PacketLen = 64
	}
	if c.MaxStates <= 0 {
		c.MaxStates = 20000
	}
	if c.MaxLoopIters <= 0 {
		c.MaxLoopIters = 64
	}
}

// Engine explores one NF module.
type Engine struct {
	Mod      *ir.Module
	Analysis *icfg.Analysis
	// PotentialAnalysis, when set, supplies the potential-cost heuristic
	// (§3.4) while Analysis keeps accounting realized costs. Passing an
	// *optimistic* analysis here (memory priced at DRAM, generous loop
	// bound) makes the searcher's first completions the highest-cost
	// paths, which is what lets exploration stop early.
	PotentialAnalysis *icfg.Analysis
	// StaticCost, when set, contributes an admissible static component to
	// the search priority: the abstract cache analysis's worst-case bound
	// on the residual CFG. The searcher takes the min of the ICFG
	// potential and the static bound (both are upper bounds, so the min
	// is tighter). castan.Analyze leaves it nil; only the benchmark's own
	// engine (bench/layers.go) sets it.
	StaticCost *cachecost.Analysis
	// Model is the discovered cache model; nil disables adversarial
	// pointer concretization (costs then assume cold-miss-once).
	Model *cachemodel.Model
	// Base is the concrete memory snapshot after NF setup (tables
	// populated); symbolic writes overlay it.
	Base *interp.Memory
	// HeapTop is the bump-allocator start (the setup machine's heap top).
	HeapTop uint64
	Cfg     Config

	// Trace, when non-nil, receives search events ("pop", "done", "trap",
	// "fork") for debugging and tests.
	Trace func(event string, s *State)

	// QueryTrace, when non-nil, is shown every constraint list the engine
	// hands a solver, with that query's hint and step cap, just before
	// the solve (debugging and tests). Both the list and the hint are the
	// engine's own and change after the call: copy what you keep.
	QueryTrace func(cons []*expr.Expr, hint solver.Model, maxSteps int)

	// Obs, when non-nil, receives search telemetry: instruction steps,
	// forks, state-queue depth, path-constraint sizes, and (through the
	// engine's solvers) per-query solver effort. The engine runs on one
	// goroutine, so all readings are deterministic.
	Obs *obs.Recorder

	// Budget, when non-nil, is charged one "symbex" tick per state pop
	// (plus "solver" ticks through the engine's solvers); when it runs
	// out the search stops at that pop boundary and Result records the
	// reason. The engine runs on one goroutine, so the cut lands on the
	// same pop at every worker count.
	Budget *budget.Meter

	// SolverFault, when non-nil, is a fault-injection hook forcing engine
	// solver queries to return Unknown once it fires (tests only). It is
	// called from the engine goroutine only, so a counting hook stays
	// deterministic.
	SolverFault func() bool

	// Taint, when non-nil, enables taint-directed hash folding: a hash
	// site whose key the analysis proves input-independent, and whose key
	// bytes are all concrete, executes concretely (no havoc record, no
	// rainbow table), and instructions it classifies input-independent
	// that come out constant count as folded. castan.Analyze leaves it
	// nil; only bench/layers.go sets it, like StaticCost.
	Taint *taint.Analysis

	// VRange, when non-nil, enables value-range-directed shortcuts: a
	// conditional branch the analysis statically decides is taken
	// concretely — no fork, no feasibility query, no constraint. Decided
	// conditions are tautologies over the packet/havoc variable domains
	// (vrange's entry facts cover every assignment the solver can
	// produce), so skipping the constraint never excludes a model.
	VRange *vrange.Analysis

	// Memo, when non-nil, is shared by every solver the engine
	// constructs (newSolver) so Unsat verdicts learned by one state's
	// query answer its siblings' renamed duplicates, and directly
	// invertible queries are discharged by the value-range model probe.
	// The caller also shares it with any post-search concretization
	// solvers.
	Memo *solver.Memo

	sol    solver.Solver
	nextID int
	// pinned caches localRepair's substituted path constraints (see
	// pinKey); free, pins and local are its scratch, reused across calls.
	pinned map[pinKey]*expr.Expr
	free   []expr.VarID
	pins   []byte
	local  []*expr.Expr

	forks    int
	explored int
	cFolded  *obs.Counter
	cAvoided *obs.Counter
	cPruned  *obs.Counter
}

// pinKey identifies one substituted form of a path constraint: the
// constraint node and, per variable of its VarList in order, two bytes
// holding the byte it is pinned to or expr.Free. A path re-poses the
// same constraint under the same pins at nearly every fork, and
// Substitute is a pure function of exactly this pair.
type pinKey struct {
	c    *expr.Expr
	pins string
}

// Result is the outcome of an exploration.
type Result struct {
	// Best is the completed state with the highest current cost, or nil
	// if no state consumed all N packets within budget.
	Best *State
	// Completed holds the keepBest best completed states (Best first).
	Completed []*State
	// StatesExplored and Forks describe the search effort.
	StatesExplored int
	Forks          int
	// PopsToFirstDone is the number of state pops when the first state
	// completed (0 if none did).
	PopsToFirstDone int
	// PopsToBest is the number of state pops when the state that ended up
	// as Best completed — the searcher's steps-to-worst-path (0 if no
	// state completed).
	PopsToBest int
	// BudgetExhausted is the budget's exhaustion reason when the search
	// was cut short by its budget.Meter ("" when the search ran to its
	// own MaxStates/stopAfterDone limits).
	BudgetExhausted string
	// BestPartial is the most-progressed pending state when no state
	// completed: most packets consumed, then highest realized cost, then
	// lowest ID — a deterministic choice a degraded pipeline can still
	// emit a workload from. nil when Completed is non-empty or the queue
	// drained.
	BestPartial *State
}

// stateHeap is a max-heap on Priority.
type stateHeap []*State

func (h stateHeap) Len() int            { return len(h) }
func (h stateHeap) Less(i, j int) bool  { return h[i].Priority() > h[j].Priority() }
func (h stateHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *stateHeap) Push(x interface{}) { *h = append(*h, x.(*State)) }
func (h *stateHeap) Pop() interface{} {
	old := *h
	n := len(old)
	s := old[n-1]
	*h = old[:n-1]
	return s
}

// PacketVar returns the variable ID for byte b of packet p, fixing the
// model→packet mapping used by downstream consumers.
func (e *Engine) PacketVar(p, b int) expr.VarID {
	return expr.VarID(p*e.Cfg.PacketLen + b)
}

// havocVarBase is the first variable ID beyond all packet bytes.
func (e *Engine) havocVarBase() expr.VarID {
	return expr.VarID(e.Cfg.NPackets * e.Cfg.PacketLen)
}

// newSolver is the single place engine solvers are configured: every
// solver the engine creates (the full-check solver and localRepair's
// per-problem solvers) carries the engine's recorder and an explicit
// step budget.
func (e *Engine) newSolver(maxSteps int) solver.Solver {
	return solver.Solver{
		MaxSteps:     maxSteps,
		Obs:          e.Obs,
		Budget:       e.Budget.Stage(budget.StageSolver),
		ForceUnknown: e.SolverFault,
		Memo:         e.Memo,
	}
}

// Run explores the NF and returns the best adversarial states found.
func (e *Engine) Run() (*Result, error) {
	e.Cfg.fill()
	entry := e.Mod.Funcs[e.Cfg.Entry]
	if entry == nil {
		return nil, fmt.Errorf("symbex: no entry function %q", e.Cfg.Entry)
	}
	if entry.NumParams != 2 {
		return nil, fmt.Errorf("symbex: entry %q must take (pktAddr, pktLen)", e.Cfg.Entry)
	}
	e.sol = e.newSolver(solverSteps)

	init := &State{
		ID:           e.nextID,
		mem:          newSymMemory(e.Base),
		nextHavocVar: e.havocVarBase(),
		model:        solver.Model{},
	}
	e.nextID++
	init.heapTop = e.HeapTop
	if e.Model != nil {
		init.tracker = e.Model.NewTracker()
	}
	e.injectPacket(init, entry)

	var pq stateHeap
	heap.Init(&pq)
	heap.Push(&pq, init)

	// Instruments are looked up once; all of them no-op when e.Obs is nil.
	var (
		cPops     = e.Obs.Counter("symbex.state_pops")
		cInstrs   = e.Obs.Counter("symbex.instructions")
		cDone     = e.Obs.Counter("symbex.done_states")
		cTrapped  = e.Obs.Counter("symbex.trapped_states")
		gQueue    = e.Obs.Gauge("symbex.queue_depth")
		hPathCons = e.Obs.Histogram("symbex.path_constraints", obs.ExpBuckets(4, 14)...)
	)
	e.cFolded = e.Obs.Counter("symbex.folded_instructions")
	e.cAvoided = e.Obs.Counter("solver.queries_avoided")
	e.cPruned = e.Obs.Counter("symbex.pruned_edges")

	var completed []*State
	done := 0
	pops := 0
	popsToFirstDone, popsToBest := 0, 0
	bSymbex := e.Budget.Stage(budget.StageSymbex)
	var budgetReason string
	for pq.Len() > 0 && e.explored < e.Cfg.MaxStates && done < stopAfterDone {
		// The budget cut point is the pop boundary: single goroutine,
		// checked before any work on the next state, so exhaustion lands
		// on the same pop at every worker count.
		if reason, ok := bSymbex.Exhausted(); ok {
			budgetReason = reason
			break
		}
		s := heap.Pop(&pq).(*State)
		pops++
		bSymbex.Charge(1)
		cPops.Inc()
		gQueue.Set(uint64(pq.Len()))
		// Batch progress for live subscribers, published from the pop
		// boundary — the run's single-goroutine orchestration point — every
		// 256 pops so the stream stays cheap and deterministic.
		if pops%256 == 0 {
			e.Obs.Progress("castan.symbex", "state_pops", uint64(pops), uint64(e.Cfg.MaxStates))
		}
		if e.Trace != nil {
			e.Trace("pop", s)
		}
		// Local pursuit: keep stepping this state while it still outranks
		// everything pending. A loose (optimistic) heuristic would
		// otherwise devolve into breadth-first search — the failure mode
		// §3.1 warns about.
		for {
			e.explored++
			if e.explored >= e.Cfg.MaxStates {
				break
			}
			instrsBefore := s.Instrs
			forks := e.step(s, entry)
			cInstrs.Add(s.Instrs - instrsBefore)
			for _, f := range forks {
				heap.Push(&pq, f)
			}
			if s.Done || s.trapped != nil {
				break
			}
			s.Potential = e.potential(s)
			if pq.Len() > 0 && s.Priority() < pq[0].Priority() {
				break
			}
		}
		if s.Done {
			done++
			cDone.Inc()
			hPathCons.Observe(uint64(len(s.constraints)))
			if e.Trace != nil {
				e.Trace("done", s)
			}
			if done == 1 {
				popsToFirstDone = pops
			}
			completed = insertCompleted(completed, s)
			if completed[0] == s {
				popsToBest = pops
			}
			continue
		}
		if s.trapped != nil {
			cTrapped.Inc()
			if e.Trace != nil {
				e.Trace("trap", s)
			}
			continue
		}
		heap.Push(&pq, s)
	}
	e.Obs.Counter("symbex.states_explored").Add(uint64(e.explored))
	e.Obs.Counter("symbex.forks").Add(uint64(e.forks))
	res := &Result{
		Completed:       completed,
		StatesExplored:  e.explored,
		Forks:           e.forks,
		PopsToFirstDone: popsToFirstDone,
		PopsToBest:      popsToBest,
		BudgetExhausted: budgetReason,
	}
	if len(completed) > 0 {
		res.Best = completed[0]
	} else {
		res.BestPartial = bestPartial(pq)
	}
	return res, nil
}

// bestPartial picks the most-progressed pending state: most packets
// consumed, then highest realized cost, then lowest ID. Trapped and
// completed states never sit in the queue, so every candidate is a live
// partial path.
func bestPartial(pq stateHeap) *State {
	var best *State
	for _, s := range pq {
		if best == nil ||
			s.PacketsDone > best.PacketsDone ||
			(s.PacketsDone == best.PacketsDone && s.CurCost > best.CurCost) ||
			(s.PacketsDone == best.PacketsDone && s.CurCost == best.CurCost && s.ID < best.ID) {
			best = s
		}
	}
	return best
}

func insertCompleted(list []*State, s *State) []*State {
	list = append(list, s)
	for i := len(list) - 1; i > 0 && list[i].CurCost > list[i-1].CurCost; i-- {
		list[i], list[i-1] = list[i-1], list[i]
	}
	if len(list) > keepBest {
		list = list[:keepBest]
	}
	return list
}

// potential estimates the cycles still reachable from s: the annotated
// ICFG potential of every frame's continuation, plus a full per-packet
// summary for each packet not yet received (§3.4).
func (e *Engine) potential(s *State) uint64 {
	an := e.PotentialAnalysis
	if an == nil {
		an = e.Analysis
	}
	// Exactly as in §3.1/§3.4, the potential covers only the path from
	// here to the next packet reception (the in-flight call stack), so a
	// state's priority estimates its realized cost at the END of the
	// current packet. No term for future packets (it would bias the queue
	// toward less-progressed states), and zero for a state resting at a
	// packet boundary (every state gets the same fresh-packet maximum, so
	// including it would bias the queue toward whoever reached a boundary
	// most cheaply). Boundary states therefore compare by pure realized
	// cost, and the search greedily rides the most expensive path.
	entry := e.Mod.Funcs[e.Cfg.Entry]
	if len(s.frames) == 1 {
		f := s.frames[0]
		if f.fn == entry && f.blk == entry.Entry() && f.pc == 0 {
			return 0
		}
	}
	var p uint64
	for _, f := range s.frames {
		p += an.Potential(f.blk, f.pc)
	}
	// The static worst-case bound of the residual CFG is an upper bound on
	// the cycles still reachable, and so is the ICFG potential — so their
	// MIN is a tighter upper bound and the priority stays admissible
	// (first completions still ride the worst paths). Tighter estimates
	// mean fewer pops before the worst path completes: among states the
	// ICFG prices identically, those whose residual program has the higher
	// static bound keep the higher priority. A frame without a static
	// bound (unbounded loop) leaves the ICFG estimate alone.
	if e.StaticCost != nil {
		var st uint64
		bounded := true
		for _, f := range s.frames {
			r, ok := e.StaticCost.Residual(f.blk, f.pc)
			if !ok {
				bounded = false
				break
			}
			st += r
		}
		if bounded && st < p {
			p = st
		}
	}
	return p
}

// injectPacket starts processing of the next packet: fresh symbolic bytes
// at PacketBase and a fresh call frame for the entry function. DDIO is
// modelled by pre-placing the packet's header lines in the cache tracker.
func (e *Engine) injectPacket(s *State, entry *ir.Func) {
	p := s.PacketsDone
	vars := make([]expr.VarID, e.Cfg.PacketLen)
	for i := range vars {
		vars[i] = e.PacketVar(p, i)
	}
	s.mem.setSymbolicBytes(ir.PacketBase, vars)
	if s.tracker != nil {
		for off := 0; off < e.Cfg.PacketLen; off += e.Model.LineBytes {
			s.tracker.RecordAccess(ir.PacketBase + uint64(off))
		}
	}
	f := &frame{
		fn:   entry,
		regs: make([]*expr.Expr, entry.NumRegs),
		blk:  entry.Entry(),
	}
	zero := expr.Const(0)
	for i := range f.regs {
		f.regs[i] = zero
	}
	f.regs[0] = expr.Const(ir.PacketBase)
	f.regs[1] = expr.Const(uint64(e.Cfg.PacketLen))
	f.retDst = ir.NoReg
	s.frames = []*frame{f}
	s.packetStartCost = s.CurCost
}

// step runs s until it forks, completes a packet sequence, traps, or
// exhausts its chunk. Returns any forked states.
func (e *Engine) step(s *State, entry *ir.Func) []*State {
	var forks []*State
	cm := e.Analysis.Cost
	for n := 0; n < stepChunk; n++ {
		f := s.top()
		if f.pc >= len(f.blk.Instrs) {
			s.trapped = fmt.Errorf("fell off block %s", f.blk.Name)
			return forks
		}
		in := f.blk.Instrs[f.pc]
		s.Instrs++
		switch in.Op {
		case ir.OpConst:
			s.CurCost += cm.Mov
			s.setReg(in.Dst, expr.Const(in.Imm))
		case ir.OpMov:
			s.CurCost += cm.Mov
			s.setReg(in.Dst, s.reg(in.A))
		case ir.OpBin:
			s.CurCost += cm.InstrCost(in)
			s.setReg(in.Dst, expr.New(binToExpr(in.Bin), s.reg(in.A), s.reg(in.B)))
		case ir.OpCmp:
			s.CurCost += cm.Cmp
			s.setReg(in.Dst, cmpExpr(in.Pred, s.reg(in.A), s.reg(in.B)))
		case ir.OpSelect:
			s.CurCost += cm.Cmp
			s.setReg(in.Dst, expr.Ite(s.reg(in.A), s.reg(in.B), s.reg(in.C)))
		case ir.OpLoad:
			s.Loads++
			addr, ok := e.resolveAddr(s, expr.Add(s.reg(in.A), expr.Const(in.Imm)))
			if !ok {
				return forks
			}
			e.writebackAddr(s, in, addr)
			s.CurCost += e.memCost(s, addr)
			s.setReg(in.Dst, s.mem.read(addr, in.Size))
		case ir.OpStore:
			s.Stores++
			addr, ok := e.resolveAddr(s, expr.Add(s.reg(in.A), expr.Const(in.Imm)))
			if !ok {
				return forks
			}
			e.writebackAddr(s, in, addr)
			s.CurCost += e.memCost(s, addr)
			s.mem.write(addr, s.reg(in.B), in.Size)
		case ir.OpBr:
			s.CurCost += cm.Branch
			e.jump(s, f, in.Blk0)
			continue
		case ir.OpCondBr:
			s.CurCost += cm.Branch
			cond := s.reg(in.A)
			if v, ok := cond.IsConst(); ok {
				if v != 0 {
					e.jump(s, f, in.Blk0)
				} else {
					e.jump(s, f, in.Blk1)
				}
				continue
			}
			// Value-range pruning: a branch the static analysis decides
			// is taken concretely — the infeasible side is never forked
			// or queried, and no constraint is recorded, because the
			// decided condition holds for every assignment of the
			// symbolic variables (their domains are exactly the packet
			// and hash-width ranges vrange started from).
			if e.VRange != nil {
				if take, ok := e.VRange.BranchDecided(in); ok {
					e.cPruned.Inc()
					if take {
						e.jump(s, f, in.Blk0)
					} else {
						e.jump(s, f, in.Blk1)
					}
					continue
				}
			}
			forked := e.fork(s, f, in, cond)
			if forked != nil {
				forks = append(forks, forked)
			}
			continue
		case ir.OpCall:
			s.CurCost += cm.Call
			callee := in.Callee
			nf := &frame{
				fn:     callee,
				regs:   make([]*expr.Expr, callee.NumRegs),
				blk:    callee.Entry(),
				retDst: in.Dst,
			}
			zero := expr.Const(0)
			for i := range nf.regs {
				nf.regs[i] = zero
			}
			for i, a := range in.Args {
				nf.regs[i] = s.reg(a)
			}
			f.pc++ // resume after the call on return
			s.frames = append(s.frames, nf)
			continue
		case ir.OpRet:
			s.CurCost += cm.Call
			var ret *expr.Expr
			if in.A != ir.NoReg {
				ret = s.reg(in.A)
			} else {
				ret = expr.Const(0)
			}
			if len(s.frames) == 1 {
				// Packet boundary: suspend so the searcher re-ranks this
				// state against pending forks before the next packet —
				// otherwise a cheap path would race through the whole
				// sequence inside one chunk.
				e.finishPacket(s, ret, entry)
				return forks
			}
			retDst := f.retDst
			s.frames = s.frames[:len(s.frames)-1]
			s.setReg(retDst, ret)
			continue
		case ir.OpAlloc:
			s.CurCost += cm.Alloc
			size, ok := s.reg(in.A).IsConst()
			if !ok {
				s.trapped = fmt.Errorf("symbolic allocation size")
				return forks
			}
			addr := (s.heapTop + 63) &^ 63
			s.heapTop = addr + size
			// Fresh allocations read as zero already (base memory is
			// zero-filled), matching the interpreter.
			s.setReg(in.Dst, expr.Const(addr))
		case ir.OpHavoc:
			s.CurCost += cm.Havoc
			e.havoc(s, in)
		default:
			s.trapped = fmt.Errorf("bad opcode %d", in.Op)
			return forks
		}
		// Taint-directed fold accounting: an instruction the analysis
		// proved input-independent whose result came out constant needed
		// no symbolic machinery at all.
		if e.Taint != nil && s.trapped == nil {
			switch in.Op {
			case ir.OpBin, ir.OpCmp, ir.OpSelect, ir.OpLoad, ir.OpHavoc:
				if in.Dst != ir.NoReg && e.Taint.ClassOf(in) == taint.Untainted {
					if _, isC := s.top().regs[in.Dst].IsConst(); isC {
						e.cFolded.Inc()
					}
				}
			}
		}
		f.pc++
	}
	return forks
}

// writebackAddr folds a just-resolved address back into the base
// register: resolveAddr pinned Eq(base+Imm, addr), which determines the
// base register uniquely (mod 2^64), so subsequent accesses through it
// take the constant fast path instead of re-running the candidate
// sweep. Model-preserving — any later sweep over the same pinned
// symbols could only re-derive this very address.
func (e *Engine) writebackAddr(s *State, in *ir.Instr, addr uint64) {
	if _, isC := s.reg(in.A).IsConst(); isC {
		return
	}
	s.setReg(in.A, expr.Const(addr-in.Imm))
	e.cFolded.Inc()
}

func binToExpr(b ir.BinOp) expr.Op {
	switch b {
	case ir.Add:
		return expr.OpAdd
	case ir.Sub:
		return expr.OpSub
	case ir.Mul:
		return expr.OpMul
	case ir.UDiv:
		return expr.OpUDiv
	case ir.URem:
		return expr.OpURem
	case ir.And:
		return expr.OpAnd
	case ir.Or:
		return expr.OpOr
	case ir.Xor:
		return expr.OpXor
	case ir.Shl:
		return expr.OpShl
	case ir.Lshr:
		return expr.OpLshr
	}
	panic("symbex: bad binop")
}

func cmpExpr(p ir.Pred, a, b *expr.Expr) *expr.Expr {
	switch p {
	case ir.Eq:
		return expr.Eq(a, b)
	case ir.Ne:
		return expr.Ne(a, b)
	case ir.Ult:
		return expr.Ult(a, b)
	case ir.Ule:
		return expr.Ule(a, b)
	case ir.Ugt:
		return expr.Ult(b, a)
	case ir.Uge:
		return expr.Ule(b, a)
	}
	panic("symbex: bad pred")
}

// jump moves the frame to target, applying the loop-deepening guard: the
// engine allows revisiting a loop head, but a state that spins too long on
// one head is trapped (the directed searcher will have forked an exit
// state long before).
func (e *Engine) jump(s *State, f *frame, target *ir.Block) {
	if e.Analysis.IsLoopHead(target) {
		if f.blk == target || blockDominatedBy(f.blk, target) {
			s.LoopDepth++
			if s.LoopDepth > e.Cfg.MaxLoopIters {
				s.trapped = fmt.Errorf("loop budget exhausted at %s", target.Name)
				return
			}
		} else {
			s.LoopDepth = 0
		}
	}
	f.blk = target
	f.pc = 0
}

// blockDominatedBy is a cheap approximation used only for loop-depth
// bookkeeping: a back edge usually jumps from a block with a higher index
// to the head.
func blockDominatedBy(b, head *ir.Block) bool {
	return b.Index >= head.Index
}

// fork splits s at a symbolic conditional branch. The state's cached
// model satisfies exactly one side for free; the other side needs one
// hinted solver check. The side with the higher potential continues in s
// (the paper's loop policy: at a loop head, always pursue one more
// iteration); the other side is returned as a new state, or nil.
func (e *Engine) fork(s *State, f *frame, in *ir.Instr, cond *expr.Expr) *State {
	trueC := expr.Truth(cond)
	falseC := expr.Not(cond)
	freeC, otherC := trueC, falseC
	freeBlk, otherBlk := in.Blk0, in.Blk1
	if trueC.Eval(s.model) == 0 {
		freeC, otherC = falseC, trueC
		freeBlk, otherBlk = in.Blk1, in.Blk0
	}
	an := e.PotentialAnalysis
	if an == nil {
		an = e.Analysis
	}
	preferOther := an.Potential(otherBlk, 0) > an.Potential(freeBlk, 0)
	fix, otherOK := e.extendModel(s, otherC)
	if !otherOK {
		s.addConstraint(freeC)
		e.jump(s, f, freeBlk)
		return nil
	}
	e.forks++
	branch := s.clone(e.nextID)
	e.nextID++
	if preferOther {
		// s pursues the higher-potential side with the repaired model;
		// the clone keeps the model-satisfied side.
		branch.addConstraint(freeC)
		branch.top().blk = freeBlk
		branch.top().pc = 0
		branch.Potential = e.potential(branch)
		s.addConstraint(otherC)
		fix.apply(s)
		e.jump(s, f, otherBlk)
		return branch
	}
	branch.addConstraint(otherC)
	fix.apply(branch)
	branch.top().blk = otherBlk
	branch.top().pc = 0
	branch.Potential = e.potential(branch)
	s.addConstraint(freeC)
	e.jump(s, f, freeBlk)
	return branch
}

// modelFix is what extendModel found: how to turn a state's cached model
// into one that also satisfies the new constraint. Each state owns its
// model map, so a fix is applied in place — to the state itself or to
// its fresh clone — instead of building a merged copy per repair.
type modelFix struct {
	// vals is nil when the cached model already satisfies the constraint.
	vals solver.Model
	// whole says vals is a complete model from a full solve and replaces
	// the cached one; otherwise vals holds only the repaired variables.
	whole bool
}

func (f modelFix) apply(s *State) {
	switch {
	case f.vals == nil:
	case f.whole:
		s.model = f.vals
	default:
		for k, v := range f.vals {
			s.model[k] = v
		}
	}
}

// extendModel tries to extend the state's constraints with c, returning
// the fix that makes the cached model satisfy it. Three stages, cheapest
// first: (1) the cached model may already satisfy c; (2) local repair —
// re-solve only c's variables with everything else substituted from the
// model, which handles the common "pick a different source port"
// adjustments in microseconds; (3) a full hinted solve. Unknown results
// are treated as infeasible, preserving the model invariant.
func (e *Engine) extendModel(s *State, c *expr.Expr) (modelFix, bool) {
	if b, ok := c.IsBool(); ok {
		return modelFix{}, b
	}
	if c.Eval(s.model) != 0 {
		return modelFix{}, true
	}
	if solver.QuickFeasible([]*expr.Expr{c}) == solver.Unsat {
		return modelFix{}, false
	}
	// Prefer repairing only the in-flight packet's bytes (and havoc
	// outputs): earlier packets' constraints stay untouched, keeping the
	// local problem tiny.
	switch m, res := e.localRepair(s, c, e.currentPacketFilter(s)); res {
	case solver.Sat:
		return modelFix{vals: m}, true
	case solver.Unsat:
		// Unsatisfiable with the whole current packet free and all earlier
		// packets pinned. Re-choosing earlier packets' bytes could in
		// principle reopen the branch, but the engine commits to its
		// earlier choices (the locally-optimal policy of §3.3).
		return modelFix{}, false
	}
	// Local repair was inconclusive (Unknown: its step cap ran out). The
	// full solve may still succeed by re-choosing an earlier packet's
	// bytes, and paths depend on it doing so.
	all := append(append([]*expr.Expr(nil), s.constraints...), c)
	if e.QueryTrace != nil {
		e.QueryTrace(all, s.model, solverSteps)
	}
	e.sol.Hint = s.model
	res, m := e.sol.Check(all)
	e.sol.Hint = nil
	if res != solver.Sat {
		return modelFix{}, false
	}
	return modelFix{vals: m, whole: true}, true
}

// currentPacketFilter restricts repairs to the in-flight packet's bytes
// and havoc output symbols.
func (e *Engine) currentPacketFilter(s *State) func(expr.VarID) bool {
	lo := expr.VarID(s.PacketsDone * e.Cfg.PacketLen)
	hi := lo + expr.VarID(e.Cfg.PacketLen)
	havocBase := e.havocVarBase()
	return func(v expr.VarID) bool {
		return (v >= lo && v < hi) || v >= havocBase
	}
}

// localRepair attempts to satisfy c by reassigning only the variables
// occurring in c (optionally narrowed by filter): every other variable is
// pinned to its model value, and the constraints sharing the free
// variables are re-solved as a small local problem. On Sat the returned
// model holds the free variables only. Failure is not conclusive (the
// pinning may be too rigid), so callers fall through.
func (e *Engine) localRepair(s *State, c *expr.Expr, filter func(expr.VarID) bool) (solver.Model, solver.Result) {
	vars := c.VarList()
	if len(vars) == 0 || len(vars) > 40 {
		return nil, solver.Unknown
	}
	e.free = e.free[:0]
	for _, v := range vars {
		if filter == nil || filter(v) {
			e.free = append(e.free, v)
		}
	}
	if len(e.free) == 0 {
		return nil, solver.Unknown
	}
	e.local = e.local[:0]
	for _, pc := range s.constraints {
		if sharesVar(pc.VarList(), e.free) {
			e.local = append(e.local, e.pin(pc, s.model))
		}
	}
	e.local = append(e.local, e.pin(c, s.model))
	if e.QueryTrace != nil {
		e.QueryTrace(e.local, s.model, localSolverSteps)
	}
	sol := e.newSolver(localSolverSteps)
	sol.Hint = s.model
	res, m := sol.Check(e.local)
	if res != solver.Sat {
		return nil, res
	}
	return m, solver.Sat
}

// sharesVar reports whether two ascending variable lists intersect.
func sharesVar(a, b []expr.VarID) bool {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// pin returns c with every variable outside e.free replaced by its model
// byte — c.Substitute of those bindings, computed once per pinKey.
func (e *Engine) pin(c *expr.Expr, model solver.Model) *expr.Expr {
	vars := c.VarList()
	e.pins = e.pins[:0]
	fi := 0
	for _, v := range vars {
		for fi < len(e.free) && e.free[fi] < v {
			fi++
		}
		state := expr.Free
		if fi == len(e.free) || e.free[fi] != v {
			state = uint16(model[v] & 0xff)
		}
		e.pins = append(e.pins, byte(state), byte(state>>8))
	}
	if r, ok := e.pinned[pinKey{c, string(e.pins)}]; ok {
		return r
	}
	fixed := make(map[expr.VarID]uint64, len(vars))
	for i, v := range vars {
		if e.pins[2*i+1] == 0 {
			fixed[v] = uint64(e.pins[2*i])
		}
	}
	r := c.Substitute(fixed)
	switch {
	case e.pinned == nil:
		e.pinned = map[pinKey]*expr.Expr{}
	case len(e.pinned) >= maxPinned:
		// Dropped whole rather than aged: the paths being forked right now
		// refill it within a few repairs, and nothing depends on a hit.
		clear(e.pinned)
	}
	e.pinned[pinKey{c, string(e.pins)}] = r
	return r
}

// resolveAddr turns a (possibly symbolic) address expression into a
// concrete address, implementing §3.3: prefer candidates in the currently
// most-contended contention set, then lines already hot on this path
// (locally optimal for collision attacks), and finally any satisfying
// address — which the cached model provides for free.
func (e *Engine) resolveAddr(s *State, a *expr.Expr) (uint64, bool) {
	if v, ok := a.IsConst(); ok {
		return v, true
	}
	if s.tracker != nil {
		iv := expr.Range(a, nil)
		lb := uint64(e.Model.LineBytes)
		candidates := s.tracker.Candidates()
		hot := s.tracker.HotLines()
		lists := [2][]uint64{candidates, hot}
		caps := [2]int{24, 8}
		// Pinned-havoc sweep skip: when every symbol in a is a havoc
		// output a previous pin already forced, the path constraints
		// determine a's value — every candidate line but the model's own
		// would come back Unsat from localRepair, and the model's line
		// would succeed for free and pin the value the model already
		// holds. Jump straight to that outcome, crediting the probes the
		// sweep would have burned.
		if s.allPinnedHavoc(a) {
			addr := a.Eval(s.model)
			modelLine := addr &^ (lb - 1)
			avoided := uint64(0)
		sweep:
			for li, list := range lists {
				tried := 0
				for _, line := range list {
					if line+lb <= iv.Lo || line > iv.Hi || tried >= caps[li] {
						continue
					}
					tried++
					if line == modelLine {
						break sweep
					}
					avoided++
				}
			}
			e.cAvoided.Add(avoided)
			s.addConstraint(expr.Eq(a, expr.Const(addr)))
			return addr, true
		}
		for li, list := range lists {
			tried := 0
			for _, line := range list {
				if line+lb <= iv.Lo || line > iv.Hi || tried >= caps[li] {
					continue
				}
				tried++
				inLine := expr.Eq(expr.And(a, expr.Const(^(lb-1))), expr.Const(line))
				fix, ok := e.extendModel(s, inLine)
				if !ok {
					continue
				}
				fix.apply(s)
				addr := a.Eval(s.model)
				s.addConstraint(expr.Eq(a, expr.Const(addr)))
				s.markPinned(a)
				return addr, true
			}
		}
	}
	// Fallback: the cached model already satisfies the path constraint, so
	// it directly yields a consistent concrete address.
	addr := a.Eval(s.model)
	s.addConstraint(expr.Eq(a, expr.Const(addr)))
	s.markPinned(a)
	return addr, true
}

// memCost charges the cycle cost of an access at a concrete address, using
// the cache tracker's prediction (DRAM for cold or thrashing lines, L1
// otherwise).
func (e *Engine) memCost(s *State, addr uint64) uint64 {
	if s.tracker != nil {
		if s.tracker.RecordAccess(addr) {
			s.ExpectDRAM++
			return e.Analysis.Cost.MemDRAM
		}
		s.ExpectHit++
		return e.Analysis.Cost.MemL1
	}
	s.ExpectHit++
	return e.Analysis.Cost.MemL1
}

// havoc implements OpHavoc symbolically: fresh output variables replace
// the hash value, and the (key, output) pair is recorded for rainbow
// reconciliation. A concrete key region is required (NF keys live in
// fixed scratch buffers).
func (e *Engine) havoc(s *State, in *ir.Instr) {
	keyAddr, ok := s.reg(in.A).IsConst()
	if !ok {
		s.trapped = fmt.Errorf("symbolic havoc key address")
		return
	}
	h := e.Mod.Hashes[in.HashID]
	keyLen := int(in.Imm)
	key := make([]*expr.Expr, keyLen)
	for i := range key {
		key[i] = s.mem.readByte(keyAddr + uint64(i))
	}
	// Taint-directed fold: when the analysis proved this site's key
	// input-independent and the key bytes are indeed all concrete, the
	// hash output is a run-to-run constant — compute it outright. No
	// havoc record means no fresh symbols, no candidate sweeps on
	// addresses derived from it, and no rainbow table downstream.
	if e.Taint != nil && e.Taint.ClassOf(in) == taint.Untainted {
		concrete := make([]byte, keyLen)
		allConst := true
		for i, kb := range key {
			v, ok := kb.IsConst()
			if !ok {
				allConst = false
				break
			}
			concrete[i] = byte(v)
		}
		if allConst {
			mask := uint64(1)<<uint(h.Bits) - 1
			if h.Bits >= 64 {
				mask = ^uint64(0)
			}
			s.setReg(in.Dst, expr.Const(h.Fn(concrete)&mask))
			return
		}
	}
	nOut := (h.Bits + 7) / 8
	outVars := make([]expr.VarID, nOut)
	outBytes := make([]*expr.Expr, nOut)
	for i := range outVars {
		outVars[i] = s.nextHavocVar
		s.nextHavocVar++
		outBytes[i] = expr.Var(outVars[i])
	}
	out := expr.ConcatBytes(outBytes...)
	if h.Bits%8 != 0 {
		mask := uint64(1)<<uint(h.Bits) - 1
		out = expr.And(out, expr.Const(mask))
	}
	s.markHavocVars(outVars)
	s.Havocs = append(s.Havocs, HavocRecord{
		HashID:  in.HashID,
		Packet:  s.PacketsDone,
		KeyAddr: keyAddr,
		KeyLen:  keyLen,
		Key:     key,
		OutVars: outVars,
		Out:     out,
	})
	s.setReg(in.Dst, out)
}

// finishPacket records the completed packet and either injects the next
// one or marks the state done. Returns true when the state finished all
// packets (so the caller stops stepping it).
func (e *Engine) finishPacket(s *State, ret *expr.Expr, entry *ir.Func) bool {
	cost := s.CurCost - s.packetStartCost
	s.PacketCosts = append(s.PacketCosts, cost)
	rv, _ := ret.IsConst()
	s.PacketRet = append(s.PacketRet, rv)
	s.PacketsDone++
	if s.PacketsDone >= e.Cfg.NPackets {
		s.Done = true
		return true
	}
	s.LoopDepth = 0
	e.injectPacket(s, entry)
	return false
}
