package symbex

import (
	"castan/internal/expr"
	"castan/internal/solver"
)

// Exposed to the external test package (localrepair_test.go builds its
// engine through castan.NewSearch, and castan imports this package).

const LocalSolverSteps = localSolverSteps

func (e *Engine) LocalRepair(s *State, c *expr.Expr) (solver.Model, solver.Result) {
	return e.localRepair(s, c, nil)
}

// PinnedLen and LocalLen are the sizes of localRepair's substitution
// cache and of its last local problem.
func (e *Engine) PinnedLen() int { return len(e.pinned) }
func (e *Engine) LocalLen() int  { return len(e.local) }

// TruncateConstraints drops every path constraint from index n on.
func (s *State) TruncateConstraints(n int) { s.constraints = s.constraints[:n] }
