package solver

import "castan/internal/expr"

// RefCheck exposes the reference search to the external test package
// (identity_test.go imports symbex, which imports this package).
var RefCheck = refCheck

// CheckEffort is Check, also returning the search tallies that
// Solver.record would flush to a recorder.
func (s *Solver) CheckEffort(constraints []*expr.Expr) (Result, Model, Effort) {
	res, m, p, _ := s.check(constraints)
	if p == nil {
		return res, m, Effort{}
	}
	return res, m, Effort{p.steps, p.props, p.backtracks, p.hintHits}
}

// Block is one run of values a block check refuted: the search had
// taken Before steps, and the block's N values were charged the next N.
type Block struct{ Before, N int }

// SkippedBlocks runs Check's search on constraints and returns every
// block it skipped, in order.
func (s *Solver) SkippedBlocks(constraints []*expr.Expr) []Block {
	p, res := newProblem(constraints, s.Hint, s.Programs)
	if res != Unknown {
		return nil
	}
	p.budget = s.MaxSteps
	if p.budget <= 0 {
		p.budget = DefaultMaxSteps
	}
	var blocks []Block
	p.onSkip = func(steps, n int) { blocks = append(blocks, Block{steps, n}) }
	p.search()
	return blocks
}

// Has reports whether the cache holds a program for e.
func (c *Programs) Has(e *expr.Expr) bool {
	_, ok := c.progs[e]
	return ok
}
