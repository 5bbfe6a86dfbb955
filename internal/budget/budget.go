// Package budget is the deterministic cooperative-cancellation layer of
// the CASTAN pipeline. The paper runs CASTAN under a fixed time budget
// (§3.1) and still emits its best-so-far workload when exploration is cut
// short; this package supplies the machinery that makes "cut short" a
// well-defined, reproducible event instead of a wall-clock race.
//
// A Meter charges *ticks* — abstract work units — at the pipeline's
// existing cost points: symbolic-execution state pops, solver search
// steps, memory-simulator probe accesses, and rainbow-table chain links.
// Ticks obey the repo-wide determinism rule (DESIGN.md decisions 6/8/10):
//
//   - charges are atomic adds, so totals are commutative and worker-count
//     invariant as long as every fan-out runs all of its items (which
//     internal/parallel guarantees);
//   - exhaustion *checks* happen only at deterministic control points on
//     the orchestrating goroutine (between state pops, between discovery
//     sweeps, between reconciliation rounds), so a budget-cut run stops at
//     the same tick at every worker count;
//   - batched hot paths may charge once per batch with the batch's total
//     (memsim.ProbeBatch charges one sum for a whole probe set rather
//     than one Charge per access): the tick total is identical to the
//     scalar path's, only the charge granularity — and therefore the
//     earliest point an exhaustion check can observe the spend — is
//     coarser, which is fine because checks only happen between batches
//     anyway.
//
// Ticks are the primary budget currency because they are deterministic; a
// wall-clock deadline is available as a secondary escape hatch via the
// injectable obs.Clock (a FakeClock keeps even deadline cuts
// byte-reproducible in tests).
//
// All methods are nil-receiver safe: a nil *Meter hands out nil *Stage
// handles whose methods no-op, so budgeted code never branches on "is a
// budget configured".
package budget

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"castan/internal/obs"
)

// Canonical stage names used by the CASTAN pipeline. Stages are plain
// strings so tools can introduce their own, but the pipeline charges
// exactly these.
const (
	StageDiscover = "discover" // memsim probe accesses during §3.2 discovery
	StageSymbex   = "symbex"   // searcher state pops
	StageSolver   = "solver"   // solver search steps (decisions+propagations)
	StageRainbow  = "rainbow"  // rainbow-table chain links walked
)

// Meter tracks tick usage against a whole-run limit, optional per-stage
// limits, and an optional wall-clock deadline.
type Meter struct {
	total      uint64 // whole-run tick limit; 0 = unlimited
	totalUsed  atomic.Uint64
	clock      obs.Clock
	deadlineAt uint64 // clock reading at which the deadline fires; 0 = none
	canceled   atomic.Pointer[string]

	mu     sync.Mutex
	stages map[string]*Stage
}

// New creates a meter with a whole-run tick limit (0 = unlimited; the
// meter then only counts, which is how benchmarks record ticks used).
func New(totalTicks uint64) *Meter {
	return &Meter{total: totalTicks, stages: map[string]*Stage{}}
}

// SetStageLimit sets a per-stage tick limit (0 = unlimited). Call during
// setup, before the pipeline starts charging.
func (m *Meter) SetStageLimit(stage string, ticks uint64) {
	if m == nil {
		return
	}
	m.Stage(stage).limit = ticks
}

// SetDeadline arms the wall-clock escape hatch: the meter reports
// exhaustion once clock.Now() reaches its current reading plus d. A nil
// clock selects the wall clock; tests inject obs.NewFakeClock so deadline
// cuts stay byte-reproducible.
func (m *Meter) SetDeadline(clock obs.Clock, d time.Duration) {
	if m == nil || d <= 0 {
		return
	}
	if clock == nil {
		clock = obs.NewWallClock()
	}
	m.clock = clock
	m.deadlineAt = clock.Now() + uint64(d)
}

// Stage returns the named stage handle, creating it on first use. Hot
// paths should look the handle up once and hold it.
func (m *Meter) Stage(name string) *Stage {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.stages[name]
	if s == nil {
		s = &Stage{meter: m, name: name}
		m.stages[name] = s
	}
	return s
}

// Cancel forces the meter into the exhausted state with the given
// reason, regardless of ticks or deadline. It is the cooperative kill
// switch a draining server pulls on every in-flight analysis: the
// pipeline observes exhaustion at its next deterministic checkpoint and
// degrades into a valid partial report instead of being torn down
// mid-stage. Safe to call from any goroutine, idempotent (the first
// reason wins), and a no-op on a nil meter.
func (m *Meter) Cancel(reason string) {
	if m == nil {
		return
	}
	if reason == "" {
		reason = "canceled"
	}
	m.canceled.CompareAndSwap(nil, &reason)
}

// Canceled reports whether Cancel was called, with its reason.
func (m *Meter) Canceled() (string, bool) {
	if m == nil {
		return "", false
	}
	if r := m.canceled.Load(); r != nil {
		return *r, true
	}
	return "", false
}

// TotalUsed reads the ticks charged across all stages.
func (m *Meter) TotalUsed() uint64 {
	if m == nil {
		return 0
	}
	return m.totalUsed.Load()
}

// Used reads the ticks charged to one stage.
func (m *Meter) Used(stage string) uint64 {
	return m.Stage(stage).Used()
}

// Exhausted reports whether a Cancel, the whole-run limit, or the
// deadline has been reached, with a human-readable reason. The cancel
// check reads no clock, so a never-canceled meter's behavior under a
// FakeClock is unchanged. Call it only from deterministic
// control points on the orchestrating goroutine: with a FakeClock every
// call advances the clock, and from workers the reading order (and hence
// the recorded trace) would depend on scheduling.
func (m *Meter) Exhausted() (string, bool) {
	if m == nil {
		return "", false
	}
	if r := m.canceled.Load(); r != nil {
		return *r, true
	}
	if m.total > 0 {
		if used := m.totalUsed.Load(); used >= m.total {
			return fmt.Sprintf("budget: %d/%d ticks used", used, m.total), true
		}
	}
	if m.deadlineAt > 0 && m.clock.Now() >= m.deadlineAt {
		return "deadline exceeded", true
	}
	return "", false
}

// Snapshot returns per-stage tick usage in sorted stage order (for
// reports and tests).
func (m *Meter) Snapshot() map[string]uint64 {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.stages))
	for name := range m.stages {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make(map[string]uint64, len(names))
	for _, name := range names {
		out[name] = m.stages[name].used.Load()
	}
	return out
}

// Stage is one named account of a Meter. Charges go to both the stage and
// the meter's whole-run total.
type Stage struct {
	meter *Meter
	name  string
	limit uint64 // 0 = no per-stage limit
	used  atomic.Uint64
}

// Charge adds n ticks. Safe for concurrent use; charges are commutative,
// so totals are worker-count invariant when every item of a fan-out runs.
func (s *Stage) Charge(n uint64) {
	if s == nil || n == 0 {
		return
	}
	s.used.Add(n)
	s.meter.totalUsed.Add(n)
}

// Used reads the stage's charged ticks.
func (s *Stage) Used() uint64 {
	if s == nil {
		return 0
	}
	return s.used.Load()
}

// Exhausted reports whether this stage's limit, the whole-run limit, or
// the deadline has been reached. The same deterministic-control-point
// caveat as Meter.Exhausted applies.
func (s *Stage) Exhausted() (string, bool) {
	if s == nil {
		return "", false
	}
	if s.limit > 0 {
		if used := s.used.Load(); used >= s.limit {
			return fmt.Sprintf("budget: stage %s %d/%d ticks used", s.name, used, s.limit), true
		}
	}
	return s.meter.Exhausted()
}
