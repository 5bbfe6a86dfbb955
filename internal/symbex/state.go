package symbex

import (
	"castan/internal/cachemodel"
	"castan/internal/expr"
	"castan/internal/ir"
	"castan/internal/solver"
)

// HavocRecord captures one executed OpHavoc for later reconciliation
// (§3.5): the symbolic key bytes that flowed into the hash, and the fresh
// output variables that replaced the hash value.
type HavocRecord struct {
	HashID  int
	Packet  int          // which packet was being processed
	Key     []*expr.Expr // per-byte expressions of the hash input
	OutVars []expr.VarID // fresh symbols forming the havoced output
	Out     *expr.Expr   // the havoced output expression (masked concat)
}

// frame is one entry of a state's call stack.
type frame struct {
	fn     *ir.Func
	regs   []*expr.Expr
	blk    *ir.Block
	pc     int
	retDst ir.Reg // register in the CALLER receiving our return value
}

func (f *frame) clone() *frame {
	n := *f
	n.regs = append([]*expr.Expr(nil), f.regs...)
	return &n
}

// State is one symbolic execution state: a point in the exploration of the
// NF over a sequence of symbolic packets.
type State struct {
	ID     int
	frames []*frame
	mem    *symMemory

	constraints []*expr.Expr
	tracker     *cachemodel.Tracker // nil when running without cache model

	// CurCost is the accumulated cycle estimate along this path (§3.3's
	// "current cost"); Potential is filled by the engine on suspension.
	CurCost   uint64
	Potential uint64

	// PacketsDone counts fully processed packets; PacketCosts records the
	// per-packet cycle estimate.
	PacketsDone  int
	PacketCosts  []uint64
	Havocs       []HavocRecord
	Instrs       uint64 // instructions executed (metric output)
	Loads        uint64
	Stores       uint64
	ExpectDRAM   uint64 // accesses the cache model predicts go to DRAM
	ExpectHit    uint64
	LoopDepth    int // consecutive iterations at the current loop head
	Done         bool
	nextHavocVar expr.VarID

	heapTop         uint64
	packetStartCost uint64
	// packetStartCons is len(constraints) when the in-flight packet
	// arrived: no earlier constraint mentions its bytes.
	packetStartCons int
	trapped         error

	// havocVars marks the fresh symbols minted for havoc outputs;
	// pinnedVars marks havoc symbols that a resolveAddr pin has already
	// forced through an Eq(addr, const) path constraint. Together they
	// let the engine prove a later address over the same symbols is
	// already determined, skipping the contended-candidate sweep whose
	// every probe would come back Unsat (the pinned-havoc sweep skip;
	// both nil until the first havoc / first pin).
	havocVars  map[expr.VarID]bool
	pinnedVars map[expr.VarID]bool

	// model is a cached satisfying assignment of the state's constraints
	// (variables absent from the map are 0). It lets branch feasibility be
	// decided by evaluation — the side the model satisfies is free — and
	// serves as the hint for incremental solver checks on the other side.
	model solver.Model
}

// Model returns the state's cached satisfying assignment.
func (s *State) Model() solver.Model { return s.model }

// Err returns the error that trapped this state, if any.
func (s *State) Err() error { return s.trapped }

func (s *State) clone(newID int) *State {
	n := &State{
		ID:           newID,
		frames:       make([]*frame, len(s.frames)),
		mem:          s.mem.clone(),
		constraints:  append([]*expr.Expr(nil), s.constraints...),
		CurCost:      s.CurCost,
		PacketsDone:  s.PacketsDone,
		PacketCosts:  append([]uint64(nil), s.PacketCosts...),
		Havocs:       append([]HavocRecord(nil), s.Havocs...),
		Instrs:       s.Instrs,
		Loads:        s.Loads,
		Stores:       s.Stores,
		ExpectDRAM:   s.ExpectDRAM,
		ExpectHit:    s.ExpectHit,
		LoopDepth:    s.LoopDepth,
		nextHavocVar: s.nextHavocVar,

		heapTop:         s.heapTop,
		packetStartCost: s.packetStartCost,
		packetStartCons: s.packetStartCons,
		model:           make(solver.Model, len(s.model)),
	}
	for k, v := range s.model {
		n.model[k] = v
	}
	for i, f := range s.frames {
		n.frames[i] = f.clone()
	}
	if s.tracker != nil {
		n.tracker = s.tracker.Clone()
	}
	if s.havocVars != nil {
		n.havocVars = make(map[expr.VarID]bool, len(s.havocVars))
		for k := range s.havocVars {
			n.havocVars[k] = true
		}
	}
	if s.pinnedVars != nil {
		n.pinnedVars = make(map[expr.VarID]bool, len(s.pinnedVars))
		for k := range s.pinnedVars {
			n.pinnedVars[k] = true
		}
	}
	return n
}

// markHavocVars records freshly minted havoc output symbols.
func (s *State) markHavocVars(vars []expr.VarID) {
	if s.havocVars == nil {
		s.havocVars = make(map[expr.VarID]bool, len(vars))
	}
	for _, v := range vars {
		s.havocVars[v] = true
	}
}

// markPinned records that an address pin just forced every havoc symbol
// occurring in a.
func (s *State) markPinned(a *expr.Expr) {
	for _, v := range a.VarList() {
		if s.havocVars[v] {
			if s.pinnedVars == nil {
				s.pinnedVars = make(map[expr.VarID]bool)
			}
			s.pinnedVars[v] = true
		}
	}
}

// allPinnedHavoc reports whether a depends only on havoc symbols that a
// previous address pin already forced — in which case the path
// constraints determine a's value and the cached model yields it.
func (s *State) allPinnedHavoc(a *expr.Expr) bool {
	vars := a.VarList()
	if len(vars) == 0 {
		return false
	}
	for _, v := range vars {
		if !s.havocVars[v] || !s.pinnedVars[v] {
			return false
		}
	}
	return true
}

// Constraints returns the state's path constraint conjuncts.
func (s *State) Constraints() []*expr.Expr { return s.constraints }

// Priority is the searcher key: expected total cycles if this state is
// pursued (current plus potential, §3.1).
func (s *State) Priority() uint64 { return s.CurCost + s.Potential }

// top returns the active frame.
func (s *State) top() *frame { return s.frames[len(s.frames)-1] }

// reg reads a register of the active frame.
func (s *State) reg(r ir.Reg) *expr.Expr { return s.top().regs[r] }

// setReg writes a register of the active frame.
func (s *State) setReg(r ir.Reg, v *expr.Expr) {
	if r != ir.NoReg {
		s.top().regs[r] = v
	}
}

// addConstraint appends a path condition.
func (s *State) addConstraint(c *expr.Expr) {
	if b, ok := c.IsBool(); ok && b {
		return // trivially true
	}
	s.constraints = append(s.constraints, c)
}
