package obs

import (
	"bytes"
	"strings"
	"testing"

	"castan/internal/parallel"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Counter("c").Add(3)
	r.Counter("c").Inc()
	r.Gauge("g").Set(7)
	r.Histogram("h", 1, 2, 4).Observe(3)
	sp := r.Span("root")
	sp.Child("child").End()
	sp.End()
	if r.NowNanos() != 0 {
		t.Error("nil recorder clock should read 0")
	}
	if r.Snapshot() != nil || r.Events() != nil {
		t.Error("nil recorder should snapshot to nil")
	}
	if r.Counter("c").Value() != 0 || r.Gauge("g").Max() != 0 || r.Histogram("h").Count() != 0 {
		t.Error("nil instruments should read zero")
	}
}

func TestInstrumentBasics(t *testing.T) {
	r := New(NewFakeClock(1000))
	r.Counter("solver.queries").Add(5)
	r.Counter("solver.queries").Inc()
	if got := r.Counter("solver.queries").Value(); got != 6 {
		t.Errorf("counter = %d, want 6", got)
	}
	g := r.Gauge("queue")
	g.Set(4)
	g.Set(9)
	g.Set(2)
	if g.Value() != 2 || g.Max() != 9 {
		t.Errorf("gauge = %d/%d, want 2/9", g.Value(), g.Max())
	}
	h := r.Histogram("sizes", 1, 4, 16)
	for _, v := range []uint64{0, 1, 2, 5, 100} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	hv := snap.Histograms["sizes"]
	want := []uint64{2, 1, 1, 1} // <=1, <=4, <=16, overflow
	for i, c := range want {
		if hv.Counts[i] != c {
			t.Errorf("bucket %d = %d, want %d (%v)", i, hv.Counts[i], c, hv)
		}
	}
	if hv.Count != 5 || hv.Sum != 108 {
		t.Errorf("count/sum = %d/%d, want 5/108", hv.Count, hv.Sum)
	}
}

func TestFakeClockSpansAreDeterministic(t *testing.T) {
	build := func() *Recorder {
		r := New(NewFakeClock(1000))
		root := r.Span("analyze")
		for _, phase := range []string{"static", "discover", "symbex"} {
			sp := root.Child(phase)
			r.Counter("work." + phase).Inc()
			sp.End()
		}
		root.End()
		return r
	}
	a, b := build(), build()
	var ja, jb, ta, tb bytes.Buffer
	if err := a.Snapshot().WriteJSON(&ja); err != nil {
		t.Fatal(err)
	}
	if err := b.Snapshot().WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteChromeTrace(&ta); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteChromeTrace(&tb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja.Bytes(), jb.Bytes()) {
		t.Errorf("metrics JSON differs across identical runs:\n%s\n%s", ja.String(), jb.String())
	}
	if !bytes.Equal(ta.Bytes(), tb.Bytes()) {
		t.Errorf("trace bytes differ across identical runs:\n%s\n%s", ta.String(), tb.String())
	}
	evs := a.Events()
	if len(evs) != 4 {
		t.Fatalf("%d events, want 4", len(evs))
	}
	if evs[0].Name != "analyze" || evs[0].Parent != 0 {
		t.Errorf("first event should be the root span: %+v", evs[0])
	}
	for _, ev := range evs[1:] {
		if ev.Parent != evs[0].ID {
			t.Errorf("child %s has parent %d, want %d", ev.Name, ev.Parent, evs[0].ID)
		}
	}
}

// TestWorkerCountInvariant mirrors the per-package determinism tests:
// counters and histograms fed from a parallel fan-out must snapshot to
// identical bytes at W=1, W=4 and W=8, because atomic adds commute.
func TestWorkerCountInvariant(t *testing.T) {
	run := func(workers int) []byte {
		r := New(NewFakeClock(1000))
		c := r.Counter("items")
		h := r.Histogram("values", ExpBuckets(1, 10)...)
		parallel.ForEach(workers, 1000, func(i int) {
			c.Inc()
			h.Observe(uint64(i % 700))
			r.Gauge("hi").Set(uint64(i)) // max is order-independent
		})
		snap := r.Snapshot()
		snap.Gauges["hi"] = GaugeValue{Max: snap.Gauges["hi"].Max} // last value is scheduling-dependent
		var buf bytes.Buffer
		if err := snap.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ref := run(1)
	for _, w := range []int{4, 8} {
		if got := run(w); !bytes.Equal(got, ref) {
			t.Errorf("W=%d snapshot differs from W=1:\n%s\n%s", w, got, ref)
		}
	}
}

func TestChromeTraceValidates(t *testing.T) {
	r := New(NewFakeClock(1000))
	sp := r.Span("phase")
	r.Counter("solver.queries").Add(42)
	sp.End()
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateChromeTrace(bytes.TrimSpace(buf.Bytes()))
	if err != nil {
		t.Fatalf("exporter output fails its own schema: %v\n%s", err, buf.String())
	}
	if n != 3 { // metadata + span + counter
		t.Errorf("validated %d events, want 3", n)
	}
	if !strings.Contains(buf.String(), `"ph":"X"`) || !strings.Contains(buf.String(), `"ph":"C"`) {
		t.Errorf("trace missing span or counter events:\n%s", buf.String())
	}

	for _, bad := range []string{
		"",
		"{}",
		"[]",
		"[\n{\"name\":\"x\"}\n]",
		"[\n{\"name\":\"x\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":0}\n]", // X without dur
		"[\n{\"name\":\"x\",\"ph\":\"Q\",\"pid\":1,\"tid\":1,\"ts\":0}\n]", // unknown phase
	} {
		if _, err := ValidateChromeTrace([]byte(bad)); err == nil {
			t.Errorf("ValidateChromeTrace accepted %q", bad)
		}
	}
}

// TestJSONLSink: Events returns spans in emission order, the order every
// exporter writes.
func TestJSONLSink(t *testing.T) {
	r := New(NewFakeClock(500))
	r.Span("a").End()
	r.Span("b").End()
	evs := r.Events()
	if len(evs) != 2 || evs[0].Name != "a" || evs[1].Name != "b" {
		t.Errorf("events %+v, want a then b in emission order", evs)
	}
}

func TestMetricsRoundTrip(t *testing.T) {
	r := New(NewFakeClock(1000))
	r.Counter("c").Add(11)
	r.Gauge("g").Set(3)
	r.Histogram("h", 2, 8).Observe(5)
	sp := r.Span("phase")
	sp.End()
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := ReadMetrics(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m.Counters["c"] != 11 || m.Gauges["g"].Value != 3 || m.Histograms["h"].Count != 1 {
		t.Errorf("round trip lost values: %+v", m)
	}
	if len(m.Phases) != 1 || m.Phases[0].Name != "phase" || m.Phases[0].TotalNanos == 0 {
		t.Errorf("round trip lost phases: %+v", m.Phases)
	}
}
