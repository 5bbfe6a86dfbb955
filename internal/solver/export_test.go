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
