package obs

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

func drain(c *ChanSub) []ProgressEvent {
	var out []ProgressEvent
	for {
		select {
		case ev := <-c.Events():
			out = append(out, ev)
		default:
			return out
		}
	}
}

func TestPublishSequenceAndKinds(t *testing.T) {
	rec := New(NewFakeClock(1000))
	sub := NewChanSub(64)
	rec.Subscribe(sub)

	if !rec.Publishing() {
		t.Fatal("Publishing() = false after Subscribe")
	}
	rec.StageBegin("castan.discover")
	rec.Progress("castan.discover", "contention_sets", 1, 6)
	rec.Counter("memsim.probe_line_reads").Add(17)
	rec.StageEnd("castan.discover")
	rec.Note("symbex", "degraded: budget")

	evs := drain(sub)
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4: %+v", len(evs), evs)
	}
	wantKinds := []string{KindStageBegin, KindProgress, KindStageEnd, KindNote}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d: seq %d, want %d", i, ev.Seq, i+1)
		}
		if ev.Kind != wantKinds[i] {
			t.Errorf("event %d: kind %q, want %q", i, ev.Kind, wantKinds[i])
		}
		if ev.TNanos == 0 {
			t.Errorf("event %d: zero timestamp", i)
		}
	}
	if got := evs[2].Counters["memsim.probe_line_reads"]; got != 17 {
		t.Errorf("stage_end delta = %d, want 17", got)
	}
	if evs[1].Done != 1 || evs[1].Total != 6 {
		t.Errorf("progress done/total = %d/%d, want 1/6", evs[1].Done, evs[1].Total)
	}
}

func TestStageEndDeltasAreIncremental(t *testing.T) {
	rec := New(NewFakeClock(1000))
	sub := NewChanSub(64)
	rec.Subscribe(sub)

	c := rec.Counter("solver.queries")
	c.Add(5)
	rec.StageEnd("a")
	c.Add(3)
	rec.Counter("symbex.state_pops").Add(2)
	rec.StageEnd("b")
	rec.StageEnd("c")

	evs := drain(sub)
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	if d := evs[0].Counters; d["solver.queries"] != 5 || len(d) != 1 {
		t.Errorf("first stage_end deltas = %v, want solver.queries=5 only", d)
	}
	if d := evs[1].Counters; d["solver.queries"] != 3 || d["symbex.state_pops"] != 2 || len(d) != 2 {
		t.Errorf("second stage_end deltas = %v", d)
	}
	if evs[2].Counters != nil {
		t.Errorf("idle stage_end carries deltas: %v", evs[2].Counters)
	}
}

func TestUnsubscribedPublishIsFree(t *testing.T) {
	clk := NewFakeClock(1000)
	rec := New(clk)
	before := clk.Now()
	rec.StageBegin("x")
	rec.StageEnd("x")
	rec.Progress("x", "y", 1, 2)
	rec.Note("x", "z")
	after := clk.Now()
	// Exactly the two Now() calls this test made: the publish no-ops must
	// not read the clock, or golden trace bytes would shift.
	if after != before+1000 {
		t.Errorf("publish methods read the clock while unsubscribed: before=%d after=%d", before, after)
	}
	if rec.Publishing() {
		t.Error("Publishing() = true with no subscribers")
	}
}

func TestNilRecorderProgressSafe(t *testing.T) {
	var rec *Recorder
	rec.Subscribe(NewChanSub(1))
	rec.StageBegin("x")
	rec.StageEnd("x")
	rec.Progress("x", "y", 1, 2)
	rec.Note("x", "z")
	if rec.Publishing() {
		t.Error("nil recorder reports Publishing")
	}
}

func TestChanSubDropsWhenFull(t *testing.T) {
	rec := New(NewFakeClock(1000))
	sub := NewChanSub(2)
	rec.Subscribe(sub)
	for i := 0; i < 5; i++ {
		rec.Note("x", "n")
	}
	if got := sub.Dropped(); got != 3 {
		t.Errorf("Dropped() = %d, want 3", got)
	}
	evs := drain(sub)
	if len(evs) != 2 {
		t.Fatalf("buffered %d events, want 2", len(evs))
	}
	// Drops leave visible seq gaps, never reorderings.
	if evs[0].Seq != 1 || evs[1].Seq != 2 {
		t.Errorf("buffered seqs = %d,%d; want 1,2", evs[0].Seq, evs[1].Seq)
	}
}

func TestChanSubCountDrops(t *testing.T) {
	rec := New(NewFakeClock(1000))
	sub := NewChanSub(2)
	sub.CountDrops(rec.Counter(SubDroppedCounter))
	rec.Subscribe(sub)
	for i := 0; i < 7; i++ {
		rec.Note("x", "n")
	}
	if got := sub.Dropped(); got != 5 {
		t.Errorf("Dropped() = %d, want 5", got)
	}
	// The mirror counter carries the same tally, so the drop count shows
	// up in metrics snapshots (and /metricsz) instead of only as seq gaps.
	if got := rec.Counter(SubDroppedCounter).Value(); got != 5 {
		t.Errorf("%s = %d, want 5", SubDroppedCounter, got)
	}
	// Without CountDrops the counter never moves and a nil counter is safe.
	rec2 := New(NewFakeClock(1000))
	sub2 := NewChanSub(1)
	rec2.Subscribe(sub2)
	rec2.Note("x", "a")
	rec2.Note("x", "b")
	if sub2.Dropped() != 1 {
		t.Errorf("Dropped() = %d, want 1", sub2.Dropped())
	}
	if got := rec2.Counter(SubDroppedCounter).Value(); got != 0 {
		t.Errorf("unmirrored drop moved %s to %d", SubDroppedCounter, got)
	}
}

func TestJSONLSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	rec := New(NewFakeClock(1000))
	sink := NewJSONLSink(&buf)
	rec.Subscribe(sink)

	rec.StageBegin("castan.symbex")
	rec.Progress("castan.symbex", "state_pops", 256, 4000)
	rec.StageEnd("castan.symbex")
	if err := sink.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	evs, err := ReadProgressEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 3 {
		t.Fatalf("round-tripped %d events, want 3", len(evs))
	}
	if evs[1].Name != "state_pops" || evs[1].Done != 256 {
		t.Errorf("round-trip mismatch: %+v", evs[1])
	}
}

func TestJSONLSinkCloseFlushesBufferedWrites(t *testing.T) {
	var buf bytes.Buffer
	rec := New(NewFakeClock(1000))
	sink := NewJSONLSink(&buf)
	rec.Subscribe(sink)
	rec.Note("x", "one line")
	// The write is buffered; only Close guarantees it reaches the writer.
	if err := sink.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !strings.Contains(buf.String(), "one line") {
		t.Errorf("buffered event not flushed by Close: %q", buf.String())
	}
}

// failingWriter errors every write after the first n bytes, and errors on
// Close too — the torn-disk case the sink must surface, not swallow.
type failingWriter struct {
	n        int
	writeErr error
	closeErr error
}

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, f.writeErr
	}
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, f.writeErr
	}
	f.n -= len(p)
	return len(p), nil
}

func (f *failingWriter) Close() error { return f.closeErr }

func TestJSONLSinkPropagatesWriteErrorOnClose(t *testing.T) {
	wantErr := errors.New("disk full")
	fw := &failingWriter{n: 10, writeErr: wantErr, closeErr: nil}
	rec := New(NewFakeClock(1000))
	sink := NewJSONLSink(fw)
	rec.Subscribe(sink)

	// Enough events to overflow the bufio buffer and force the failing
	// write before Close; the pipeline itself must never notice.
	for i := 0; i < 5000; i++ {
		rec.Note("castan.symbex", "progress note with some padding to fill the buffer")
	}
	if err := sink.Close(); !errors.Is(err, wantErr) {
		t.Fatalf("Close() = %v, want %v", err, wantErr)
	}
	if err := sink.Err(); !errors.Is(err, wantErr) {
		t.Fatalf("Err() = %v, want %v", err, wantErr)
	}
	// Idempotent: a second Close reports the same sticky error.
	if err := sink.Close(); !errors.Is(err, wantErr) {
		t.Fatalf("second Close() = %v, want %v", err, wantErr)
	}
}

func TestJSONLSinkPropagatesFlushAndCloseErrors(t *testing.T) {
	// Small payload: the event stays in the bufio buffer until Close, so
	// the failure surfaces at flush time — the silently-dropped-write
	// case this PR's lifecycle audit is about.
	flushErr := errors.New("flush failed")
	fw := &failingWriter{n: 0, writeErr: flushErr}
	sink := NewJSONLSink(fw)
	sink.OnProgress(ProgressEvent{Seq: 1, Kind: KindNote})
	if err := sink.Close(); !errors.Is(err, flushErr) {
		t.Fatalf("Close() = %v, want flush error %v", err, flushErr)
	}

	closeErr := errors.New("close failed")
	fw2 := &failingWriter{n: 1 << 20, closeErr: closeErr}
	sink2 := NewJSONLSink(fw2)
	sink2.OnProgress(ProgressEvent{Seq: 1, Kind: KindNote})
	if err := sink2.Close(); !errors.Is(err, closeErr) {
		t.Fatalf("Close() = %v, want close error %v", err, closeErr)
	}
}

func TestTTYRendererShapes(t *testing.T) {
	var buf bytes.Buffer
	r := NewTTYRenderer(&buf)
	r.OnProgress(ProgressEvent{Kind: KindStageBegin, Stage: "castan.discover"})
	r.OnProgress(ProgressEvent{Kind: KindProgress, Stage: "castan.discover", Name: "contention_sets", Done: 2, Total: 6})
	r.OnProgress(ProgressEvent{Kind: KindStageEnd, Stage: "castan.discover", Counters: map[string]uint64{"a": 1}})
	r.OnProgress(ProgressEvent{Kind: KindNote, Stage: "symbex", Name: "degraded: budget"})
	out := buf.String()
	for _, want := range []string{"==> castan.discover", "contention_sets 2/6", "<== castan.discover (1 counters moved)", "degraded: budget"} {
		if !strings.Contains(out, want) {
			t.Errorf("renderer output missing %q:\n%s", want, out)
		}
	}
	// The open progress line is terminated before the next durable line.
	if strings.Contains(out, "2/6<==") {
		t.Errorf("progress line not closed before stage end:\n%s", out)
	}
}

func TestServeDebugMetricsz(t *testing.T) {
	rec := New(NewFakeClock(1000))
	rec.Counter("solver.queries").Add(42)
	ln, err := ServeDebug("127.0.0.1:0", rec)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	resp, err := http.Get(fmt.Sprintf("http://%s/metricsz", ln.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	m, err := ReadMetrics(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if m.Counters["solver.queries"] != 42 {
		t.Errorf("metricsz counters = %v, want solver.queries=42", m.Counters)
	}

	resp2, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/", ln.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("pprof index status = %d", resp2.StatusCode)
	}
}

// TestStageIsBeginChildEndEnd pins Span.Stage to the four calls it stands
// for — stage_begin, child span, span end, stage_end — clock reading for
// clock reading, with and without a subscriber, so a pipeline written
// either way records the same events and publishes the same stream. A nil
// root (no recorder) opens nil stages whose End is a no-op.
func TestStageIsBeginChildEndEnd(t *testing.T) {
	for _, subscribed := range []bool{true, false} {
		run := func(stage func(rec *Recorder, root *Span, name string, work func())) ([]ProgressEvent, []Event) {
			rec := New(NewFakeClock(1000))
			sub := NewChanSub(64)
			if subscribed {
				rec.Subscribe(sub)
			}
			root := rec.Span("root")
			stage(rec, root, "a", func() { rec.Counter("c").Add(3) })
			stage(rec, root, "b", func() { rec.Progress("b", "batch", 1, 2) })
			root.End()
			return drain(sub), rec.Events()
		}
		wantPub, wantSpans := run(func(rec *Recorder, root *Span, name string, work func()) {
			rec.StageBegin(name)
			sp := rec.Span(name)
			work()
			sp.End()
			rec.StageEnd(name)
		})
		gotPub, gotSpans := run(func(_ *Recorder, root *Span, name string, work func()) {
			sp := root.Stage(name)
			work()
			sp.End()
		})
		if fmt.Sprint(gotPub) != fmt.Sprint(wantPub) {
			t.Errorf("subscribed=%v: published\n %v\nwant\n %v", subscribed, gotPub, wantPub)
		}
		if fmt.Sprint(gotSpans) != fmt.Sprint(wantSpans) {
			t.Errorf("subscribed=%v: spans\n %v\nwant\n %v", subscribed, gotSpans, wantSpans)
		}
		if subscribed && len(gotPub) != 5 {
			t.Errorf("published %d events, want 5", len(gotPub))
		}
	}
	var none *Span
	none.Stage("x").End()
}
