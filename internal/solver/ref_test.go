package solver

import (
	"sort"

	"castan/internal/expr"
)

// This file is the search as it stood before the problem state went
// dense and the constraints were compiled: chronological backtracking
// over map[expr.VarID]-keyed state, every propagation a tree walk
// through Expr.Eval and expr.Range. It is kept, test-only, as the oracle
// for the invariant the replacement was built under — for any query,
// the same Result, the same model and the same steps, props, backtracks
// and hintHits (identity_test.go).

// Effort is one query's search tallies.
type Effort struct{ Steps, Props, Backtracks, HintHits int }

// refCheck decides constraints the way Solver.check used to (the memo,
// budget and fault hooks, which sit in front of the search, left out).
func refCheck(constraints []*expr.Expr, hint Model, maxSteps int) (Result, Model, Effort) {
	p, res := newRefProblem(constraints)
	if p == nil {
		return res, nil, Effort{}
	}
	if res == Unknown {
		p.budget = maxSteps
		p.hint = hint
		switch p.search() {
		case searchSat:
			res = Sat
		case searchUnsat:
			res = Unsat
		}
	}
	var m Model
	if res == Sat {
		m = p.model()
	}
	return res, m, Effort{p.steps, p.props, p.backtracks, p.hintHits}
}

type refProblem struct {
	cons     []*expr.Expr
	consVars [][]expr.VarID // cached variable lists per constraint
	vars     []expr.VarID
	varCons  map[expr.VarID][]int // var -> constraint indices
	unVars   []int                // per-constraint count of unassigned vars
	assign   map[expr.VarID]uint64
	hint     Model
	order    []expr.VarID
	steps    int
	budget   int

	// Effort tallies, returned by refCheck.
	props      int // propagateCheck invocations
	backtracks int // assignments undone
	hintHits   int // hinted values that survived propagation
}

// newRefProblem normalizes constraints. Returns (nil, Unsat) for a
// trivially false system and an empty problem with Sat for a trivially
// true one.
func newRefProblem(constraints []*expr.Expr) (*refProblem, Result) {
	p := &refProblem{
		varCons: map[expr.VarID][]int{},
		assign:  map[expr.VarID]uint64{},
	}
	seen := map[expr.VarID]bool{}
	// Interval pre-pass: constraints comparing structurally identical
	// expressions against constants narrow a shared interval; an empty
	// intersection refutes the system without any search. This catches
	// the "w <= c together with w > c" window conflicts that backtracking
	// is hopeless at.
	ivs := map[uint64]*expr.Interval{}
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
		idx := len(p.cons)
		p.cons = append(p.cons, t)
		vs := t.VarList()
		p.consVars = append(p.consVars, vs)
		p.unVars = append(p.unVars, len(vs))
		for _, v := range vs {
			p.varCons[v] = append(p.varCons[v], idx)
			if !seen[v] {
				seen[v] = true
				p.vars = append(p.vars, v)
			}
		}
	}
	if len(p.cons) == 0 {
		return p, Sat
	}
	// Deterministic variable order: most-constrained first, then by ID.
	p.order = append([]expr.VarID(nil), p.vars...)
	sort.Slice(p.order, func(i, j int) bool {
		a, b := p.order[i], p.order[j]
		if len(p.varCons[a]) != len(p.varCons[b]) {
			return len(p.varCons[a]) > len(p.varCons[b])
		}
		return a < b
	})
	return p, Unknown
}

func (p *refProblem) model() Model {
	m := make(Model, len(p.assign))
	for k, v := range p.assign {
		m[k] = v
	}
	return m
}

// pickVar returns the next variable to assign: an unassigned variable of
// the constraint with the fewest unassigned variables (fail-first).
func (p *refProblem) pickVar() (expr.VarID, bool) {
	best, bestCount := -1, 1<<30
	for ci, n := range p.unVars {
		if n > 0 && n < bestCount {
			best, bestCount = ci, n
			if n == 1 {
				break
			}
		}
	}
	if best >= 0 {
		vs := p.consVars[best]
		// Deterministic: smallest unassigned ID in that constraint.
		found := false
		var min expr.VarID
		for _, v := range vs {
			if _, ok := p.assign[v]; !ok {
				if !found || v < min {
					min, found = v, true
				}
			}
		}
		if found {
			return min, true
		}
	}
	for _, v := range p.order {
		if _, ok := p.assign[v]; !ok {
			return v, true
		}
	}
	return 0, false
}

// valueAt maps iteration index k to the k-th candidate value for v:
// the hinted value first, then ascending order.
func (p *refProblem) valueAt(v expr.VarID, k uint64) uint64 {
	if p.hint == nil {
		return k
	}
	hintVal, ok := p.hint[v]
	if !ok {
		return k
	}
	hintVal &= 0xff
	switch {
	case k == 0:
		return hintVal
	case k <= hintVal:
		return k - 1
	default:
		return k
	}
}

// propagateCheck verifies all constraints touching v after assigning it:
// fully-assigned constraints must evaluate nonzero; nearly-assigned ones
// must still admit a nonzero value by interval analysis. Constraints with
// many free variables are left unchecked — interval pruning almost never
// fires for them, and the cost would dominate the search.
func (p *refProblem) propagateCheck(v expr.VarID) bool {
	p.props++
	for _, ci := range p.varCons[v] {
		c := p.cons[ci]
		if p.unVars[ci] == 0 {
			if c.Eval(p.assign) == 0 {
				return false
			}
		} else if p.unVars[ci] <= rangeCheckMaxFree {
			if iv := expr.Range(c, p.assign); iv.Hi == 0 {
				return false
			}
		}
	}
	return true
}

func (p *refProblem) assignVar(v expr.VarID, val uint64) {
	p.assign[v] = val
	for _, ci := range p.varCons[v] {
		p.unVars[ci]--
	}
}

func (p *refProblem) unassignVar(v expr.VarID) {
	p.backtracks++
	delete(p.assign, v)
	for _, ci := range p.varCons[v] {
		p.unVars[ci]++
	}
}

func (p *refProblem) search() searchResult {
	v, more := p.pickVar()
	if !more {
		return searchSat
	}
	for k := uint64(0); k < 256; k++ {
		p.steps++
		if p.steps > p.budget {
			return searchBudget
		}
		val := p.valueAt(v, k)
		p.assignVar(v, val)
		if p.propagateCheck(v) {
			if k == 0 && p.hint != nil {
				if _, hinted := p.hint[v]; hinted {
					p.hintHits++
				}
			}
			switch r := p.search(); r {
			case searchSat, searchBudget:
				return r
			}
		}
		p.unassignVar(v)
	}
	return searchUnsat
}
