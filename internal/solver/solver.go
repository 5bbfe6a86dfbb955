// Package solver decides satisfiability of conjunctions of bitvector
// constraints over packet-byte variables and produces satisfying models
// (concrete packets). It plays the role the SMT solver plays for CASTAN:
// the symbolic-execution engine asserts path constraints, asks "is this
// branch / this concretized pointer feasible?", and finally asks for a
// model of the highest-cost state.
//
// The fragment it handles — comparisons over words assembled from packet
// bytes, masked table-index equalities from pointer concretization, and
// disequalities for flow uniqueness — is deliberately narrower than a
// general SMT solver, which keeps the implementation small: backtracking
// search over byte variables with unit filtering and sound interval
// pruning.
package solver

import (
	"errors"
	"slices"

	"castan/internal/budget"
	"castan/internal/expr"
	"castan/internal/obs"
)

// Result is the outcome of a satisfiability check.
type Result int

// Check outcomes.
const (
	Unsat Result = iota
	Sat
	Unknown // budget exhausted before a decision
)

// String names the result.
func (r Result) String() string {
	switch r {
	case Unsat:
		return "unsat"
	case Sat:
		return "sat"
	default:
		return "unknown"
	}
}

// Model is a satisfying assignment of byte values to variables.
type Model map[expr.VarID]uint64

// narrow folds constraint t into the per-expression interval map,
// reporting false when an interval becomes empty (definite Unsat).
func narrow(ivs map[uint64]*expr.Interval, t *expr.Expr) bool {
	var sym *expr.Expr
	var lo, hi uint64
	max := ^uint64(0)
	switch t.Op {
	case expr.OpEq, expr.OpUle, expr.OpUlt:
	default:
		return true
	}
	av, aok := t.A.IsConst()
	bv, bok := t.B.IsConst()
	switch {
	case aok == bok:
		return true // const-const folded earlier; sym-sym not handled here
	case bok: // sym <op> const
		sym = t.A
		switch t.Op {
		case expr.OpEq:
			lo, hi = bv, bv
		case expr.OpUle:
			lo, hi = 0, bv
		case expr.OpUlt:
			if bv == 0 {
				return false
			}
			lo, hi = 0, bv-1
		}
	default: // const <op> sym
		sym = t.B
		switch t.Op {
		case expr.OpEq:
			lo, hi = av, av
		case expr.OpUle:
			lo, hi = av, max
		case expr.OpUlt:
			if av == max {
				return false
			}
			lo, hi = av+1, max
		}
	}
	iv, ok := ivs[sym.Fingerprint()]
	if !ok {
		ivs[sym.Fingerprint()] = &expr.Interval{Lo: lo, Hi: hi}
		return true
	}
	*iv = iv.Intersect(expr.Interval{Lo: lo, Hi: hi})
	return !iv.Empty()
}

// ErrBudget is returned by Solve when the step budget runs out.
var ErrBudget = errors.New("solver: step budget exhausted")

// Solver holds tunables. The zero value uses defaults.
type Solver struct {
	// MaxSteps bounds the number of decisions+propagations; 0 means
	// DefaultMaxSteps.
	MaxSteps int
	// Hint, when set, biases the search to try each variable's hinted
	// value first. When the constraint system is an extension of one the
	// hint already satisfies, the search only repairs the affected
	// variables, making incremental checks nearly free.
	Hint Model
	// Obs, when set, receives per-query telemetry: query counts by
	// outcome, steps and clock time per query, propagation rounds,
	// backtracks, and hint hits. Callers whose query count depends on the
	// worker count (speculative parallel batches) must leave it nil so
	// the recorded totals stay deterministic (DESIGN.md decision 8).
	Obs *obs.Recorder
	// Budget, when set, is charged one tick per search step after each
	// query, and a query entered with the budget already exhausted
	// returns Unknown immediately (cooperative cancellation — an
	// in-flight query always runs to its own MaxSteps, so the cut point
	// is a query boundary, which is deterministic). The same caveat as
	// Obs applies: speculative parallel callers must leave it nil and
	// let the orchestrator charge the sequential-equivalent effort.
	Budget *budget.Stage
	// ForceUnknown is a fault-injection hook: when it returns true the
	// query is abandoned as Unknown before any search. Production code
	// leaves it nil; internal/faultinject supplies seeded hooks.
	ForceUnknown func() bool
	// Memo, when set, answers qualifying queries without search: cached
	// Unsat verdicts under normalized constraint keys (see memo.go). A
	// memo hit bypasses the per-query telemetry — only the memo's own hit
	// counter moves — so discharged queries vanish from solver.queries
	// exactly as if the caller had never asked. Shared, like Hint,
	// across the solvers one engine constructs; never across workers.
	Memo *Memo
}

// DefaultMaxSteps is the default search budget.
const DefaultMaxSteps = 400000

// Check decides the conjunction of the given constraints. Each constraint
// is interpreted as "expression != 0". On Sat the returned model assigns
// every variable that occurs in the constraints.
func (s *Solver) Check(constraints []*expr.Expr) (Result, Model) {
	var start uint64
	if s.Obs != nil {
		start = s.Obs.NowNanos()
	}
	res, m, p, memoHit := s.check(constraints)
	if s.Obs != nil && !memoHit {
		s.record(res, p, s.Obs.NowNanos()-start)
	}
	return res, m
}

func (s *Solver) check(constraints []*expr.Expr) (Result, Model, *problem, bool) {
	if s.ForceUnknown != nil && s.ForceUnknown() {
		return Unknown, nil, nil, false
	}
	if _, exhausted := s.Budget.Exhausted(); exhausted {
		return Unknown, nil, nil, false
	}
	// Memo lookup sits after the fault and budget guards so injected
	// faults and exhausted budgets keep their exact semantics, and
	// before problem construction so a hit costs no search steps.
	var memoKey string
	if s.Memo != nil {
		if key, hit, ok := s.Memo.lookup(constraints); ok {
			if hit {
				return Unsat, nil, nil, true
			}
			memoKey = key
		}
	}
	p, res := newProblem(constraints, s.Hint)
	defer func() {
		if p != nil {
			s.Budget.Charge(uint64(p.steps))
		}
	}()
	if res != Unknown {
		if res == Unsat && memoKey != "" {
			s.Memo.store(memoKey)
		}
		return res, modelIfSat(res, p), p, false
	}
	budget := s.MaxSteps
	if budget <= 0 {
		budget = DefaultMaxSteps
	}
	p.budget = budget
	switch p.search() {
	case searchSat:
		return Sat, p.model(), p, false
	case searchUnsat:
		if memoKey != "" {
			s.Memo.store(memoKey)
		}
		return Unsat, nil, p, false
	default:
		return Unknown, nil, p, false
	}
}

// record flushes one query's effort to the recorder. Per-problem tallies
// are plain ints bumped on the (single-goroutine) search path and merged
// here with one atomic add each, keeping the hot loop cheap.
func (s *Solver) record(res Result, p *problem, durNanos uint64) {
	rec := s.Obs
	rec.Counter("solver.queries").Inc()
	rec.Counter("solver.queries_" + res.String()).Inc()
	rec.Histogram("solver.query_ns", obs.ExpBuckets(256, 20)...).Observe(durNanos)
	if p == nil {
		return
	}
	rec.Histogram("solver.steps_per_query", obs.ExpBuckets(16, 16)...).Observe(uint64(p.steps))
	rec.Counter("solver.propagation_rounds").Add(uint64(p.props))
	rec.Counter("solver.backtracks").Add(uint64(p.backtracks))
	rec.Counter("solver.hint_hits").Add(uint64(p.hintHits))
}

func modelIfSat(r Result, p *problem) Model {
	if r == Sat && p != nil {
		return p.model()
	}
	return nil
}

// Solve returns a model or an error (unsat or budget).
func (s *Solver) Solve(constraints []*expr.Expr) (Model, error) {
	res, m := s.Check(constraints)
	switch res {
	case Sat:
		return m, nil
	case Unsat:
		return nil, errors.New("solver: unsatisfiable")
	default:
		return nil, ErrBudget
	}
}

type searchResult int

const (
	searchSat searchResult = iota
	searchUnsat
	searchBudget
)

// problem is one query's search state, dense: variables are renumbered
// to slots in ascending VarID order and every per-variable or
// per-constraint fact is a slice indexed by slot or constraint, so a
// search step touches no map. Each constraint is compiled once into an
// expr.Program, which recomputes only what the just-moved variable
// reaches.
type problem struct {
	vars    []expr.VarID // slot -> variable
	state   []uint16     // slot -> assigned byte, or expr.Free
	hint    []uint16     // slot -> hinted byte, or noHint; nil without a hint
	cons    []constraint
	varCons [][]int32 // slot -> the constraints it occurs in, ascending
	steps   int
	budget  int

	// Telemetry tallies (flushed by Solver.record).
	props      int // propagateCheck invocations
	backtracks int // assignments undone
	hintHits   int // hinted values that survived propagation
}

type constraint struct {
	prog  *expr.Program
	slots []int32 // its variables' slots, ascending
	free  int     // how many of them are unassigned
}

const noHint uint16 = 0xffff

// newProblem normalizes constraints. Returns (nil, Unsat) for a trivially
// false system and an empty problem with Sat for a trivially true one.
func newProblem(constraints []*expr.Expr, hint Model) (*problem, Result) {
	// Interval pre-pass: constraints comparing structurally identical
	// expressions against constants narrow a shared interval; an empty
	// intersection refutes the system without any search. This catches
	// the "w <= c together with w > c" window conflicts that backtracking
	// is hopeless at.
	ivs := map[uint64]*expr.Interval{}
	// A structurally equal repeat of an earlier constraint is dropped: it
	// fails exactly when the earlier one does and, coming later with the
	// same count of unassigned variables, never wins pickVar's
	// first-minimum scan, so the search visits the same nodes without it.
	first := make(map[uint64]*expr.Expr, len(constraints))
	kept := make([]*expr.Expr, 0, len(constraints))
	nvars := 0
	for _, c := range constraints {
		t := expr.Truth(c)
		if b, ok := t.IsBool(); ok {
			if !b {
				return nil, Unsat
			}
			continue
		}
		if !narrow(ivs, t) {
			return nil, Unsat
		}
		if prev, dup := first[t.Fingerprint()]; dup {
			if expr.SameStructure(prev, t) {
				continue
			}
		} else {
			first[t.Fingerprint()] = t
		}
		kept = append(kept, t)
		nvars += len(t.VarList())
	}
	p := &problem{}
	if len(kept) == 0 {
		return p, Sat
	}
	p.vars = make([]expr.VarID, 0, nvars)
	for _, t := range kept {
		p.vars = append(p.vars, t.VarList()...)
	}
	slices.Sort(p.vars)
	p.vars = slices.Compact(p.vars)

	p.state = make([]uint16, len(p.vars))
	for i := range p.state {
		p.state[i] = expr.Free
	}
	if hint != nil {
		p.hint = make([]uint16, len(p.vars))
		for i, v := range p.vars {
			p.hint[i] = noHint
			if val, ok := hint[v]; ok {
				p.hint[i] = uint16(val & 0xff)
			}
		}
	}
	// Every constraint's slot list and every variable's constraint list
	// are carved out of two backing arrays of one entry per occurrence.
	p.cons = make([]constraint, len(kept))
	slots := make([]int32, 0, nvars)
	occurs := make([]int32, len(p.vars))
	var compiler expr.Compiler
	for ci, t := range kept {
		from := len(slots)
		for _, v := range t.VarList() {
			slot, _ := slices.BinarySearch(p.vars, v)
			slots = append(slots, int32(slot))
			occurs[slot]++
		}
		own := slots[from:len(slots):len(slots)]
		p.cons[ci] = constraint{prog: compiler.Compile(t, own), slots: own, free: len(own)}
	}
	p.varCons = make([][]int32, len(p.vars))
	backing := make([]int32, nvars)
	for slot, n := range occurs {
		p.varCons[slot], backing = backing[:0:n], backing[n:]
	}
	for ci := range p.cons {
		for _, slot := range p.cons[ci].slots {
			p.varCons[slot] = append(p.varCons[slot], int32(ci))
		}
	}
	return p, Unknown
}

// model reads the assignment out as a Model; called once, on Sat.
func (p *problem) model() Model {
	m := make(Model, len(p.vars))
	for slot, v := range p.vars {
		m[v] = uint64(p.state[slot])
	}
	return m
}

// pickVar returns the slot of the next variable to assign: the
// smallest-ID unassigned variable of the first constraint with the
// fewest unassigned variables (fail-first), or -1 when every variable is
// assigned — each one occurs in some constraint, so that is exactly
// when no constraint has an unassigned variable left.
func (p *problem) pickVar() int32 {
	best, bestCount := -1, 1<<30
	for ci := range p.cons {
		if n := p.cons[ci].free; n > 0 && n < bestCount {
			best, bestCount = ci, n
			if n == 1 {
				break
			}
		}
	}
	if best < 0 {
		return -1
	}
	for _, slot := range p.cons[best].slots {
		if p.state[slot] == expr.Free {
			return slot
		}
	}
	panic("solver: constraint counts an unassigned variable it does not have")
}

// valueAt maps iteration index k to the k-th candidate value for the
// variable in slot: the hinted value first, then ascending order.
func (p *problem) valueAt(slot int32, k uint16) uint16 {
	if p.hint == nil || p.hint[slot] == noHint {
		return k
	}
	hintVal := p.hint[slot]
	switch {
	case k == 0:
		return hintVal
	case k <= hintVal:
		return k - 1
	default:
		return k
	}
}

// propagateCheck verifies all constraints touching the variable in slot
// after assigning it: fully-assigned constraints must evaluate nonzero;
// nearly-assigned ones must still admit a nonzero value by interval
// analysis. Constraints with many free variables are left unchecked —
// interval pruning almost never fires for them, and the cost would
// dominate the search.
const rangeCheckMaxFree = 6

func (p *problem) propagateCheck(slot int32) bool {
	p.props++
	for _, ci := range p.varCons[slot] {
		c := &p.cons[ci]
		if c.free == 0 {
			if c.prog.Eval(p.state) == 0 {
				return false
			}
		} else if c.free <= rangeCheckMaxFree {
			if c.prog.Range(p.state).Hi == 0 {
				return false
			}
		}
	}
	return true
}

func (p *problem) assignVar(slot int32, val uint16) {
	p.state[slot] = val
	for _, ci := range p.varCons[slot] {
		p.cons[ci].free--
	}
}

func (p *problem) unassignVar(slot int32) {
	p.backtracks++
	p.state[slot] = expr.Free
	for _, ci := range p.varCons[slot] {
		p.cons[ci].free++
	}
}

func (p *problem) search() searchResult {
	slot := p.pickVar()
	if slot < 0 {
		return searchSat
	}
	for k := uint16(0); k < 256; k++ {
		p.steps++
		if p.steps > p.budget {
			return searchBudget
		}
		p.assignVar(slot, p.valueAt(slot, k))
		if p.propagateCheck(slot) {
			if k == 0 && p.hint != nil && p.hint[slot] != noHint {
				p.hintHits++
			}
			switch r := p.search(); r {
			case searchSat, searchBudget:
				return r
			}
		}
		p.unassignVar(slot)
	}
	return searchUnsat
}

// QuickFeasible is a cheap, sound-for-Unsat check: it returns Unsat only
// when interval analysis refutes some constraint outright, or refutes
// one under the unit pins (top-level v == c constraints) the system
// itself carries; otherwise Unknown. The symbex engine uses it as a
// pre-filter before full checks, and reconciliation before posing a
// pinned query whose Unknown and Unsat mean the same thing. It stays out
// of Check: there a capped Unknown falls through to a full solve, and
// answering Unsat instead would change what that solve finds.
func QuickFeasible(constraints []*expr.Expr) Result {
	var pins map[expr.VarID]uint64
	for _, c := range constraints {
		t := expr.Truth(c)
		if b, ok := t.IsBool(); ok {
			if !b {
				return Unsat
			}
			continue
		}
		if iv := expr.Range(t, nil); iv.Hi == 0 {
			return Unsat
		}
		if v, k, ok := unitPin(t); ok {
			if pins == nil {
				pins = map[expr.VarID]uint64{}
			}
			pins[v] = k
		}
	}
	if pins == nil {
		return Unknown
	}
	// Two pins that disagree on a variable need no check of their own:
	// under the one kept, the other's constraint is false. One pass is
	// enough on the catalog: the refuted constraint there is a 2–3-byte
	// address equation whose bytes are all pinned directly, so no
	// fixpoint over derived pins is needed.
	for _, c := range constraints {
		if expr.Range(expr.Truth(c), pins).Hi == 0 {
			return Unsat
		}
	}
	return Unknown
}

// unitPin reports whether t is v == c for a variable v and constant c,
// in either operand order.
func unitPin(t *expr.Expr) (expr.VarID, uint64, bool) {
	if t.Op != expr.OpEq {
		return 0, 0, false
	}
	a, b := t.A, t.B
	if a.Op == expr.OpConst {
		a, b = b, a
	}
	if a.Op == expr.OpVar && b.Op == expr.OpConst {
		return a.Var, b.Val, true
	}
	return 0, 0, false
}
