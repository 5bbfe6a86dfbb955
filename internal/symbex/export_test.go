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

// LocalRepairInFlight is LocalRepair as fork poses it: only the
// in-flight packet's bytes and hash outputs are free.
func (e *Engine) LocalRepairInFlight(s *State, c *expr.Expr) (solver.Model, solver.Result) {
	return e.localRepair(s, c, e.currentPacketFilter(s))
}

// PinnedLen and LocalLen are the sizes of localRepair's substitution
// cache and of its last local problem.
func (e *Engine) PinnedLen() int { return len(e.pinned) }
func (e *Engine) LocalLen() int  { return len(e.local) }

// TruncateConstraints drops every path constraint from index n on.
func (s *State) TruncateConstraints(n int) { s.constraints = s.constraints[:n] }

// ReopenLastPacket makes a completed state's last packet the in-flight
// one again, as it was while that packet ran.
func (s *State) ReopenLastPacket() {
	s.PacketsDone--
	s.Done = false
}
