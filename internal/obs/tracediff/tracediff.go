// Package tracediff compares two runs' telemetry — metrics snapshots and
// optional trace exports — and attributes every regressed counter and
// phase to the pipeline stage that owns it. It is the analysis engine
// behind castan tracediff and the perf gate's failure report: instead of a
// bare "effort counter regressed, exit 1", the gate names the stage and
// counter that moved.
//
// Only deterministic effort counters gate (the same rule as the perf
// gate); phase tick deltas are reported for attribution but never decide
// regression, because under a wall clock they are load-dependent.
package tracediff

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"castan/internal/obs"
)

// Run is one side of a comparison.
type Run struct {
	// Label names the run in reports (file path, "baseline", ...).
	Label string
	// Counters and Phases come from an obs.Metrics snapshot or a bench row.
	Counters map[string]uint64
	Phases   []obs.Phase
	// Spans are the run's trace spans, when a trace was given; the report
	// then includes the run's critical path.
	Spans []obs.Event
}

// LoadRun reads a run from a metrics snapshot file and an optional trace
// file ("" to skip). The trace goes through obs.ReadChromeTrace, so a file
// castan tracediff check refuses is refused here too. A trace-only run
// (metricsPath "") takes its counters from the trace's final counter
// samples and its phases from its spans, by the snapshot's rule.
func LoadRun(metricsPath, tracePath string) (*Run, error) {
	r := &Run{Label: metricsPath}
	if metricsPath != "" {
		f, err := os.Open(metricsPath)
		if err != nil {
			return nil, err
		}
		m, err := obs.ReadMetrics(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", metricsPath, err)
		}
		r.Counters = m.Counters
		r.Phases = m.Phases
	}
	if tracePath != "" {
		t, err := obs.ReadChromeTraceFile(tracePath)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", tracePath, err)
		}
		r.Spans = t.Spans
		if r.Label == "" {
			r.Label = tracePath
		}
		if r.Counters == nil {
			r.Counters = t.Counters
		}
		if r.Phases == nil {
			r.Phases = obs.Phases(t.Spans)
		}
	}
	if r.Counters == nil && r.Phases == nil {
		return nil, fmt.Errorf("tracediff: run %q carries no counters or phases", r.Label)
	}
	return r, nil
}

// stagePrefixes attributes counter names to the pipeline stage whose work
// moves them. First matching prefix wins; the table is ordered most
// specific first. Counters outside the table (and the run-wide
// budget_ticks_used) attribute to the root, which is excluded from
// TopStage — a root-only regression means "somewhere unattributed".
var stagePrefixes = []struct{ prefix, stage string }{
	{"castan.degraded.discover", "castan.discover"},
	{"castan.degraded.symbex", "castan.symbex"},
	{"castan.degraded.solve", "castan.reconcile"},
	{"castan.degraded.rainbow", "castan.reconcile"},
	{"castan.degraded.reconcile", "castan.reconcile"},
	{"castan.store.", "castan.discover"},
	{"castan.contention_sets", "castan.discover"},
	{"castan.havocs", "castan.reconcile"},
	{"castan.reconcile_checks", "castan.reconcile"},
	{"memsim.", "castan.discover"},
	{"cachemodel.", "castan.discover"},
	{"symbex.", "castan.symbex"},
	{"solver.", "castan.symbex"},
	{"rainbow.", "castan.reconcile"},
}

// StageOf maps a counter name to the castan stage that owns it
// ("castan.analyze" for unattributed names).
func StageOf(counter string) string {
	for _, e := range stagePrefixes {
		if strings.HasPrefix(counter, e.prefix) {
			return e.stage
		}
	}
	return "castan.analyze"
}

// Entry is one diffed quantity.
type Entry struct {
	Name  string `json:"name"`
	Kind  string `json:"kind"` // "counter" or "phase"
	Stage string `json:"stage"`
	Base  uint64 `json:"base"`
	New   uint64 `json:"new"`
	Delta int64  `json:"delta"`
	// Rel is the smoothed relative change (new+1)/(base+1)-1: monotone in
	// the raw ratio and finite for zero baselines, so it sorts and
	// serializes cleanly.
	Rel float64 `json:"rel"`
}

// Regressed applies the perf gate's rule: the value grew, and by more
// than the tolerance. Phases never regress (wall-clock dependent).
func (e *Entry) Regressed(tolerance float64) bool {
	return e.Kind == "counter" && e.New > e.Base &&
		float64(e.New) > float64(e.Base)*(1+tolerance)
}

// Report is the comparison result. Schema "castan-tracediff/v1".
type Report struct {
	Schema    string  `json:"schema"`
	BaseLabel string  `json:"base"`
	NewLabel  string  `json:"new"`
	Tolerance float64 `json:"tolerance"`
	// Counters and Phases list every quantity that moved, stage-attributed,
	// sorted by Rel descending (worst first).
	Counters []Entry `json:"counters,omitempty"`
	Phases   []Entry `json:"phases,omitempty"`
	// Regressions are the counter entries beyond tolerance, worst first.
	Regressions []Entry `json:"regressions,omitempty"`
	// TopStage is the stage owning the worst regressed counter (excluding
	// the unattributed root); empty when nothing regressed.
	TopStage string `json:"top_stage,omitempty"`
	// CriticalPaths renders both runs' critical paths when traces were
	// given ("name dur_ns > name dur_ns > ...").
	BaseCriticalPath string `json:"base_critical_path,omitempty"`
	NewCriticalPath  string `json:"new_critical_path,omitempty"`
}

func diffEntry(name, kind string, base, cur uint64) Entry {
	return Entry{
		Name:  name,
		Kind:  kind,
		Stage: StageOf(name),
		Base:  base,
		New:   cur,
		Delta: int64(cur) - int64(base),
		Rel:   (float64(cur)+1)/(float64(base)+1) - 1,
	}
}

func sortEntries(es []Entry) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].Rel != es[j].Rel {
			return es[i].Rel > es[j].Rel
		}
		return es[i].Name < es[j].Name
	})
}

// Diff compares two runs over the intersection of their counters (so a
// baseline recorded before a counter existed still diffs the ones it
// has) and the union of their phases.
func Diff(base, cur *Run, tolerance float64) *Report {
	rep := &Report{
		Schema:    "castan-tracediff/v1",
		BaseLabel: base.Label,
		NewLabel:  cur.Label,
		Tolerance: tolerance,
	}
	for name, bv := range base.Counters {
		nv, ok := cur.Counters[name]
		if !ok || nv == bv {
			continue
		}
		rep.Counters = append(rep.Counters, diffEntry(name, "counter", bv, nv))
	}
	sortEntries(rep.Counters)
	for _, e := range rep.Counters {
		if e.Regressed(tolerance) {
			rep.Regressions = append(rep.Regressions, e)
		}
	}
	for _, e := range rep.Regressions {
		if e.Stage != "castan.analyze" {
			rep.TopStage = e.Stage
			break
		}
	}

	basePhases := map[string]uint64{}
	for _, p := range base.Phases {
		basePhases[p.Name] += p.TotalNanos
	}
	curPhases := map[string]uint64{}
	for _, p := range cur.Phases {
		curPhases[p.Name] += p.TotalNanos
	}
	names := map[string]bool{}
	for n := range basePhases {
		names[n] = true
	}
	for n := range curPhases {
		names[n] = true
	}
	for n := range names {
		bv, nv := basePhases[n], curPhases[n]
		if bv == nv {
			continue
		}
		e := diffEntry(n, "phase", bv, nv)
		// A phase attributes to itself when it is a known stage span.
		if strings.HasPrefix(n, "castan.") {
			e.Stage = n
		}
		rep.Phases = append(rep.Phases, e)
	}
	sortEntries(rep.Phases)

	rep.BaseCriticalPath = criticalPath(base.Spans)
	rep.NewCriticalPath = criticalPath(cur.Spans)
	return rep
}

// criticalPath renders the chain of stages that bounds a run's length:
// the longest root span, then at every level its longest child, ties
// going to the earlier start. A trace records no parent links, so a span's
// parent is the innermost earlier span whose interval contains it. Each
// step prints its share of the root's duration.
func criticalPath(spans []obs.Event) string {
	order := append([]obs.Event(nil), spans...)
	sort.SliceStable(order, func(i, j int) bool {
		if order[i].Start != order[j].Start {
			return order[i].Start < order[j].Start
		}
		return order[i].Dur > order[j].Dur
	})
	parent := make([]int, len(order))
	var open []int // the chain of spans containing the current one
	for i, s := range order {
		for len(open) > 0 {
			p := order[open[len(open)-1]]
			if s.Start >= p.Start && s.Start+s.Dur <= p.Start+p.Dur {
				break
			}
			open = open[:len(open)-1]
		}
		parent[i] = -1
		if len(open) > 0 {
			parent[i] = open[len(open)-1]
		}
		open = append(open, i)
	}
	var parts []string
	var rootDur uint64
	for cur := -1; ; {
		next := -1
		for i := range order {
			if parent[i] == cur && (next < 0 || order[i].Dur > order[next].Dur) {
				next = i
			}
		}
		if next < 0 {
			break
		}
		s := order[next]
		if cur < 0 {
			rootDur = s.Dur
		}
		share := 1.0
		if rootDur > 0 {
			share = float64(s.Dur) / float64(rootDur)
		}
		parts = append(parts, fmt.Sprintf("%s %dns (%.0f%%)", s.Name, s.Dur, share*100))
		cur = next
	}
	return strings.Join(parts, " > ")
}

// HasRegressions reports whether any counter regressed beyond tolerance.
func (r *Report) HasRegressions() bool { return len(r.Regressions) > 0 }

// Render writes the human-readable attribution table.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "tracediff: %s -> %s (tolerance %.0f%%)\n", r.BaseLabel, r.NewLabel, r.Tolerance*100)
	if len(r.Counters) == 0 && len(r.Phases) == 0 {
		fmt.Fprintln(w, "  no counter or phase moved")
		return
	}
	if len(r.Counters) > 0 {
		fmt.Fprintf(w, "  %-20s %-32s %12s %12s %10s %8s\n", "STAGE", "COUNTER", "BASE", "NEW", "DELTA", "REL")
		for _, e := range r.Counters {
			mark := " "
			if e.Regressed(r.Tolerance) {
				mark = "!"
			}
			fmt.Fprintf(w, "%s %-20s %-32s %12d %12d %+10d %+7.1f%%\n",
				mark, e.Stage, e.Name, e.Base, e.New, e.Delta, e.Rel*100)
		}
	}
	if len(r.Phases) > 0 {
		fmt.Fprintf(w, "  %-20s %-32s %12s %12s %10s %8s\n", "STAGE", "PHASE (ticks)", "BASE", "NEW", "DELTA", "REL")
		for _, e := range r.Phases {
			fmt.Fprintf(w, "  %-20s %-32s %12d %12d %+10d %+7.1f%%\n",
				e.Stage, e.Name, e.Base, e.New, e.Delta, e.Rel*100)
		}
	}
	if r.BaseCriticalPath != "" {
		fmt.Fprintf(w, "  critical path (base): %s\n", r.BaseCriticalPath)
	}
	if r.NewCriticalPath != "" {
		fmt.Fprintf(w, "  critical path (new):  %s\n", r.NewCriticalPath)
	}
	if r.HasRegressions() {
		top := r.Regressions[0]
		fmt.Fprintf(w, "top regression: %s — %s %d -> %d (%+.1f%%)",
			top.Stage, top.Name, top.Base, top.New, top.Rel*100)
		if r.TopStage != "" && r.TopStage != top.Stage {
			fmt.Fprintf(w, "; top attributed stage: %s", r.TopStage)
		}
		fmt.Fprintf(w, "\n%d counter(s) regressed beyond %.0f%% tolerance\n", len(r.Regressions), r.Tolerance*100)
	} else {
		fmt.Fprintln(w, "no counter regressed beyond tolerance")
	}
}
