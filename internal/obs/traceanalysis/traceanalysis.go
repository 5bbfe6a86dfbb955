// Package traceanalysis reconstructs span trees from the observability
// layer's trace exports and answers the profiling questions the raw files
// cannot: where did the ticks go (per-span self vs total time), what was
// the critical path through the pipeline's stages, and which span names
// dominate (top-K attribution). Trace files are the Chrome trace_event
// array `castan -trace` writes, whose tree is recovered by interval
// containment; in-process obs.Events also carry real span IDs and
// parents, which FromEvents follows.
package traceanalysis

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"castan/internal/obs"
)

// Span is one node of the reconstructed tree.
type Span struct {
	Name   string
	Start  uint64 // ns since the run's clock epoch
	Dur    uint64 // total ns, children included
	ID     int64
	Parent int64

	Children []*Span
	// Self is Dur minus the children's Dur: ticks spent in this span's own
	// code rather than delegated to a sub-stage.
	Self uint64
}

// End is the span's end timestamp.
func (s *Span) End() uint64 { return s.Start + s.Dur }

// Tree is a reconstructed trace: the span forest plus any final counter
// samples the export carried (Chrome "C" events).
type Tree struct {
	Roots    []*Span
	Counters map[string]uint64
}

// FromEvents builds the tree from native sink events. When the events
// carry span IDs the recorded parent links are used; otherwise (or for
// events whose parent is missing from the export) containment of the
// [Start, End) intervals decides nesting, widest-first.
func FromEvents(evs []obs.Event) *Tree {
	nodes := make([]*Span, len(evs))
	byID := map[int64]*Span{}
	for i, ev := range evs {
		nodes[i] = &Span{Name: ev.Name, Start: ev.Start, Dur: ev.Dur, ID: ev.ID, Parent: ev.Parent}
		if ev.ID != 0 {
			byID[ev.ID] = nodes[i]
		}
	}
	// Sort parents-before-children: earlier start first, then wider first,
	// then recorded ID for full determinism.
	order := append([]*Span(nil), nodes...)
	sort.SliceStable(order, func(i, j int) bool {
		if order[i].Start != order[j].Start {
			return order[i].Start < order[j].Start
		}
		if order[i].Dur != order[j].Dur {
			return order[i].Dur > order[j].Dur
		}
		return order[i].ID < order[j].ID
	})

	t := &Tree{}
	var stack []*Span
	for _, n := range order {
		if p, ok := byID[n.Parent]; ok && n.Parent != 0 {
			p.Children = append(p.Children, n)
			continue
		}
		// Containment fallback: pop stack frames that cannot contain n.
		for len(stack) > 0 {
			top := stack[len(stack)-1]
			if n.Start >= top.Start && n.End() <= top.End() {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			top := stack[len(stack)-1]
			top.Children = append(top.Children, n)
			n.Parent = top.ID
		} else {
			t.Roots = append(t.Roots, n)
		}
		stack = append(stack, n)
	}
	// ID-linked children were attached in input order; normalize every
	// child list to start order and fill Self.
	var finalize func(s *Span)
	finalize = func(s *Span) {
		sort.SliceStable(s.Children, func(i, j int) bool {
			if s.Children[i].Start != s.Children[j].Start {
				return s.Children[i].Start < s.Children[j].Start
			}
			return s.Children[i].ID < s.Children[j].ID
		})
		var childDur uint64
		for _, c := range s.Children {
			finalize(c)
			childDur += c.Dur
		}
		if childDur > s.Dur {
			childDur = s.Dur // overlapping children can over-count
		}
		s.Self = s.Dur - childDur
	}
	for _, r := range t.Roots {
		finalize(r)
	}
	return t
}

// ParseChromeTrace decodes a Chrome trace_event array as written by
// obs.WriteChromeTrace back into native events plus the final counter
// samples. The exporter renders timestamps as "<us>.<ns%1000>" with exact
// nanosecond precision, so multiplying the parsed float by 1000 and
// rounding recovers the original ticks exactly.
func ParseChromeTrace(data []byte) ([]obs.Event, map[string]uint64, error) {
	var raw []struct {
		Name  string         `json:"name"`
		Phase string         `json:"ph"`
		Ts    float64        `json:"ts"`
		Dur   float64        `json:"dur"`
		Args  map[string]any `json:"args"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, nil, fmt.Errorf("traceanalysis: not a Chrome trace_event array (the format castan -trace writes): %w", err)
	}
	var evs []obs.Event
	counters := map[string]uint64{}
	usToNs := func(v float64) uint64 { return uint64(v*1000 + 0.5) }
	for _, ev := range raw {
		switch ev.Phase {
		case "X":
			evs = append(evs, obs.Event{Name: ev.Name, Start: usToNs(ev.Ts), Dur: usToNs(ev.Dur)})
		case "C":
			if v, ok := ev.Args["value"].(float64); ok {
				counters[ev.Name] = uint64(v + 0.5)
			}
		}
	}
	if len(counters) == 0 {
		counters = nil
	}
	return evs, counters, nil
}

// Load reads a Chrome trace_event array, the format castan -trace
// writes; anything else is an error.
func Load(r io.Reader) (*Tree, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	evs, counters, err := ParseChromeTrace(data)
	if err != nil {
		return nil, err
	}
	t := FromEvents(evs)
	t.Counters = counters
	return t, nil
}

// LoadFile reads the Chrome trace file at path.
func LoadFile(path string) (*Tree, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// PathStep is one hop of the critical path.
type PathStep struct {
	Span *Span
	// Depth is the step's tree depth (root = 0).
	Depth int
	// Share is the span's Dur as a fraction of the path root's Dur.
	Share float64
}

// CriticalPath walks from the heaviest root down through the heaviest
// child at every level — the chain of stages that bounds the run's length.
// Ties break toward the earlier-starting child so the path is
// deterministic.
func (t *Tree) CriticalPath() []PathStep {
	if len(t.Roots) == 0 {
		return nil
	}
	root := t.Roots[0]
	for _, r := range t.Roots[1:] {
		if r.Dur > root.Dur {
			root = r
		}
	}
	var path []PathStep
	cur := root
	depth := 0
	for cur != nil {
		share := 1.0
		if root.Dur > 0 {
			share = float64(cur.Dur) / float64(root.Dur)
		}
		path = append(path, PathStep{Span: cur, Depth: depth, Share: share})
		var next *Span
		for _, c := range cur.Children {
			if next == nil || c.Dur > next.Dur {
				next = c
			}
		}
		cur = next
		depth++
	}
	return path
}

// NameStat aggregates every span sharing one name.
type NameStat struct {
	Name  string `json:"name"`
	Count int    `json:"count"`
	// Total sums Dur across the name's spans; Self sums their self time.
	// Parallel shards of one stage all contribute, so Total can exceed
	// wall-clock — it is attribution weight, not elapsed time.
	Total uint64 `json:"total_ns"`
	Self  uint64 `json:"self_ns"`
}

// ByName aggregates the tree per span name, ordered by self time
// descending (name ascending on ties) — the attribution profile.
func (t *Tree) ByName() []NameStat {
	acc := map[string]*NameStat{}
	var walk func(s *Span)
	walk = func(s *Span) {
		st := acc[s.Name]
		if st == nil {
			st = &NameStat{Name: s.Name}
			acc[s.Name] = st
		}
		st.Count++
		st.Total += s.Dur
		st.Self += s.Self
		for _, c := range s.Children {
			walk(c)
		}
	}
	for _, r := range t.Roots {
		walk(r)
	}
	out := make([]NameStat, 0, len(acc))
	for _, st := range acc {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// TopK returns the K heaviest names by self time.
func (t *Tree) TopK(k int) []NameStat {
	stats := t.ByName()
	if k > 0 && len(stats) > k {
		stats = stats[:k]
	}
	return stats
}
