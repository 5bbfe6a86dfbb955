package traceanalysis

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"castan/internal/obs"
)

// record builds a small pipeline-shaped recorder: a root with three
// stages, one of which has a child shard.
func record() *obs.Recorder {
	rec := obs.New(obs.NewFakeClock(1000))
	rec.Counter("solver.queries").Add(7)
	root := rec.Span("castan.analyze")
	s1 := root.Child("castan.discover")
	s1.End()
	s2 := root.Child("castan.symbex")
	shard := s2.Child("castan.symbex.shard")
	shard.End()
	s2.End()
	s3 := root.Child("castan.reconcile")
	s3.End()
	root.End()
	return rec
}

func TestFromEventsWithIDs(t *testing.T) {
	rec := record()
	tree := FromEvents(rec.Events())
	if len(tree.Roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(tree.Roots))
	}
	root := tree.Roots[0]
	if root.Name != "castan.analyze" || len(root.Children) != 3 {
		t.Fatalf("root %q with %d children, want castan.analyze with 3", root.Name, len(root.Children))
	}
	names := []string{root.Children[0].Name, root.Children[1].Name, root.Children[2].Name}
	want := []string{"castan.discover", "castan.symbex", "castan.reconcile"}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("child %d = %q, want %q (start-ordered)", i, names[i], want[i])
		}
	}
	symbex := root.Children[1]
	if len(symbex.Children) != 1 || symbex.Children[0].Name != "castan.symbex.shard" {
		t.Fatalf("symbex children = %+v, want the shard", symbex.Children)
	}
	// Self + children == total on every span.
	var check func(s *Span)
	check = func(s *Span) {
		var childDur uint64
		for _, c := range s.Children {
			childDur += c.Dur
			check(c)
		}
		if s.Self+childDur != s.Dur {
			t.Errorf("%s: self %d + children %d != dur %d", s.Name, s.Self, childDur, s.Dur)
		}
	}
	check(root)
}

func TestChromeRoundTripExactTicks(t *testing.T) {
	rec := record()
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	tree, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if tree.Counters["solver.queries"] != 7 {
		t.Errorf("counters = %v, want solver.queries=7", tree.Counters)
	}
	// The same events one JSON object per line are not a trace file:
	// Load names the one format it reads.
	var jsonl bytes.Buffer
	enc := json.NewEncoder(&jsonl)
	for _, ev := range rec.Events() {
		if err := enc.Encode(ev); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Load(&jsonl); err == nil || !strings.Contains(err.Error(), "Chrome trace_event array") {
		t.Errorf("Load(JSONL) error = %v, want one naming the Chrome trace_event array", err)
	}
	// The Chrome export has no span IDs; containment must recover the
	// identical shape, and the µs "<d>.<03d>" rendering must round-trip
	// the fake clock's exact nanosecond ticks.
	native := FromEvents(rec.Events())
	if len(tree.Roots) != 1 || tree.Roots[0].Name != "castan.analyze" {
		t.Fatalf("chrome roots = %+v", tree.Roots)
	}
	type flat struct {
		Name             string
		Start, Dur, Self uint64
	}
	var flatten func(s *Span, out *[]flat)
	flatten = func(s *Span, out *[]flat) {
		*out = append(*out, flat{Name: s.Name, Start: s.Start, Dur: s.Dur, Self: s.Self})
		for _, c := range s.Children {
			flatten(c, out)
		}
	}
	var a, b []flat
	flatten(native.Roots[0], &a)
	flatten(tree.Roots[0], &b)
	if len(a) != len(b) {
		t.Fatalf("native %d spans, chrome %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("span %d: native %+v != chrome %+v", i, a[i], b[i])
		}
	}
}

func TestCriticalPathFollowsHeaviestChild(t *testing.T) {
	rec := obs.New(obs.NewFakeClock(1000))
	root := rec.Span("root")
	light := root.Child("light")
	light.End() // 2 readings = 2000 ticks
	heavy := root.Child("heavy")
	inner := heavy.Child("inner")
	for i := 0; i < 10; i++ {
		rec.NowNanos() // widen the heavy branch
	}
	inner.End()
	heavy.End()
	root.End()

	tree := FromEvents(rec.Events())
	path := tree.CriticalPath()
	var names []string
	for _, st := range path {
		names = append(names, st.Span.Name)
	}
	if got, want := strings.Join(names, ">"), "root>heavy>inner"; got != want {
		t.Fatalf("critical path = %s, want %s", got, want)
	}
	if path[0].Share != 1.0 {
		t.Errorf("root share = %v, want 1.0", path[0].Share)
	}
	if path[1].Share <= 0 || path[1].Share > 1 {
		t.Errorf("heavy share = %v, want in (0, 1]", path[1].Share)
	}
	if path[2].Depth != 2 {
		t.Errorf("inner depth = %d, want 2", path[2].Depth)
	}
}

func TestByNameAndTopK(t *testing.T) {
	rec := obs.New(obs.NewFakeClock(1000))
	root := rec.Span("root")
	for i := 0; i < 3; i++ {
		sh := root.Child("shard")
		rec.NowNanos()
		sh.End()
	}
	root.End()
	tree := FromEvents(rec.Events())
	stats := tree.ByName()
	if len(stats) != 2 {
		t.Fatalf("ByName = %+v, want 2 names", stats)
	}
	byName := map[string]NameStat{}
	for _, st := range stats {
		byName[st.Name] = st
	}
	if byName["shard"].Count != 3 {
		t.Errorf("shard count = %d, want 3", byName["shard"].Count)
	}
	if top := tree.TopK(1); len(top) != 1 || top[0].Name != stats[0].Name {
		t.Errorf("TopK(1) = %+v, want [%+v]", top, stats[0])
	}
}
