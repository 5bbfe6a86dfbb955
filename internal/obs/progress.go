package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// This file is the live half of the observability layer: an ordered
// ProgressEvent stream fanned out to pluggable subscribers. The snapshot
// exporters (export.go) answer "what did the run cost" after the fact;
// the event bus answers "where is the run right now" while it executes —
// the seam castan-as-a-service needs for a streamable progress feed.
//
// Determinism contract (DESIGN.md decision 13): sequence numbers and
// event timestamps are assigned under the recorder mutex, and the
// pipeline only publishes from single-goroutine orchestration points
// (stage boundaries, the symbex pop loop, discovery's per-set loop), so
// under a FakeClock the published stream is byte-identical at every
// worker count — exactly the rule spans already obey. Counter deltas are
// attached only to stage_end events, which happen after every worker
// join, where counter totals are worker-count invariant. Publishing from
// concurrent goroutines (a campaign fanning out analyses over one shared
// recorder) stays safe and per-subscriber ordered, but the interleaving
// across pipelines then reflects real scheduling — live telemetry, not a
// golden.

// ProgressEvent is one entry of the live telemetry stream.
type ProgressEvent struct {
	// Seq is the dense, strictly increasing publish sequence number
	// (1-based). Subscribers observe events in Seq order with no gaps.
	Seq uint64 `json:"seq"`
	// TNanos is the recorder clock's reading at publish time.
	TNanos uint64 `json:"t_ns"`
	// Kind is one of the Kind* constants below.
	Kind string `json:"kind"`
	// Stage names the pipeline stage the event belongs to (span names:
	// "castan.discover", "castan.symbex", ...).
	Stage string `json:"stage,omitempty"`
	// Name qualifies progress and note events (the batch being advanced,
	// or the note text).
	Name string `json:"name,omitempty"`
	// Done/Total carry batch progress ("done of total"). Total is a
	// best-effort bound (e.g. the exploration budget) and may be 0 when
	// the stage cannot estimate one.
	Done  uint64 `json:"done,omitempty"`
	Total uint64 `json:"total,omitempty"`
	// Counters holds the per-counter deltas accumulated since the
	// previous stage_end event (stage_end only; keys serialize sorted, so
	// the bytes are deterministic).
	Counters map[string]uint64 `json:"counters,omitempty"`
}

// ProgressEvent kinds.
const (
	KindStageBegin = "stage_begin"
	KindStageEnd   = "stage_end"
	KindProgress   = "progress"
	KindNote       = "note"
)

// Subscriber receives published events. OnProgress is called under the
// recorder mutex — in publish order, never concurrently — so it must be
// fast and must never call back into the recorder.
type Subscriber interface {
	OnProgress(ev ProgressEvent)
}

// Subscribe attaches a subscriber to the recorder's event bus. Safe on a
// nil recorder (no-op). Subscribers cannot be detached: they live for the
// recorder's lifetime, like instruments.
func (r *Recorder) Subscribe(s Subscriber) {
	if r == nil || s == nil {
		return
	}
	r.mu.Lock()
	r.subs = append(r.subs, s)
	r.mu.Unlock()
	r.hasSubs.Store(true)
}

// Publishing reports whether any subscriber is attached — the fast path
// emitters may use to skip building event payloads. False on nil.
func (r *Recorder) Publishing() bool {
	return r != nil && r.hasSubs.Load()
}

// publishLocked assigns the sequence number and timestamp and delivers to
// every subscriber. Caller holds r.mu.
func (r *Recorder) publishLocked(ev ProgressEvent) {
	r.seq++
	ev.Seq = r.seq
	ev.TNanos = r.clock.Now()
	for _, s := range r.subs {
		s.OnProgress(ev)
	}
}

// StageBegin publishes a stage_begin event. No-op without subscribers.
func (r *Recorder) StageBegin(stage string) {
	if !r.Publishing() {
		return
	}
	r.mu.Lock()
	r.publishLocked(ProgressEvent{Kind: KindStageBegin, Stage: stage})
	r.mu.Unlock()
}

// StageEnd publishes a stage_end event carrying the deltas of every
// counter that moved since the previous stage_end (or since the run
// began). Stage ends happen after worker joins, where counter totals are
// worker-count invariant, so the deltas are too. No-op without
// subscribers.
func (r *Recorder) StageEnd(stage string) {
	if !r.Publishing() {
		return
	}
	r.mu.Lock()
	var deltas map[string]uint64
	if r.watermark == nil {
		r.watermark = make(map[string]uint64, len(r.counters))
	}
	for name, c := range r.counters {
		v := c.Value()
		if d := v - r.watermark[name]; d != 0 {
			if deltas == nil {
				deltas = map[string]uint64{}
			}
			deltas[name] = d
			r.watermark[name] = v
		}
	}
	r.publishLocked(ProgressEvent{Kind: KindStageEnd, Stage: stage, Counters: deltas})
	r.mu.Unlock()
}

// Progress publishes a batch-progress event: done of total units within
// the named sub-task of a stage. No-op without subscribers.
func (r *Recorder) Progress(stage, name string, done, total uint64) {
	if !r.Publishing() {
		return
	}
	r.mu.Lock()
	r.publishLocked(ProgressEvent{Kind: KindProgress, Stage: stage, Name: name, Done: done, Total: total})
	r.mu.Unlock()
}

// Note publishes a free-form note event (degradations, one-off
// milestones). No-op without subscribers.
func (r *Recorder) Note(stage, note string) {
	if !r.Publishing() {
		return
	}
	r.mu.Lock()
	r.publishLocked(ProgressEvent{Kind: KindNote, Stage: stage, Name: note})
	r.mu.Unlock()
}

// JSONLSink streams events as JSON Lines to a writer, one event per
// line, in publish order. Writes are buffered; the first error is sticky
// (later events are dropped) and is reported by Close and Err — nothing
// fails silently, but a broken sink never disturbs the pipeline either.
type JSONLSink struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	c   io.Closer
	err error
}

// NewJSONLSink wraps w in a streaming sink. If w is an io.Closer, Close
// closes it after flushing.
func NewJSONLSink(w io.Writer) *JSONLSink {
	s := &JSONLSink{bw: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// OpenJSONLSink creates path and returns a sink streaming to it.
func OpenJSONLSink(path string) (*JSONLSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return NewJSONLSink(f), nil
}

// OnProgress implements Subscriber.
func (s *JSONLSink) OnProgress(ev ProgressEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	data, err := json.Marshal(ev)
	if err != nil {
		s.err = err
		return
	}
	data = append(data, '\n')
	if _, err := s.bw.Write(data); err != nil {
		s.err = err
	}
}

// Err returns the sink's sticky error, if any, without closing it.
func (s *JSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close flushes buffered events and closes the underlying writer (when
// it is a Closer). It returns the first error the sink ever hit — a
// sticky write error, a flush error, or the close error — so buffered
// writes can never be dropped silently. Close is idempotent: later calls
// return the same error.
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ferr := s.bw.Flush(); s.err == nil {
		s.err = ferr
	}
	if s.c != nil {
		if cerr := s.c.Close(); s.err == nil {
			s.err = cerr
		}
		s.c = nil
	}
	return s.err
}

// SubDroppedCounter is the canonical counter name for events a bounded
// subscriber had to discard on a full buffer (see ChanSub.CountDrops).
// It is deliberately not a gate counter: drops depend on how fast the
// consumer drains, which is live scheduling, not analysis effort.
const SubDroppedCounter = "obs.sub.dropped"

// ChanSub buffers events in a bounded channel — the seam castand drains
// into server-sent events. Delivery never blocks the pipeline: when the
// buffer is full the event is counted as dropped instead. Sequence
// numbers make drops visible to the consumer as gaps, and CountDrops
// additionally mirrors the count into a real counter so operators see
// slow consumers without diffing sequence numbers.
type ChanSub struct {
	ch      chan ProgressEvent
	dropped atomic.Uint64
	counter *Counter
}

// NewChanSub returns a subscriber buffering up to buffer events
// (default 1024 when buffer <= 0).
func NewChanSub(buffer int) *ChanSub {
	if buffer <= 0 {
		buffer = 1024
	}
	return &ChanSub{ch: make(chan ProgressEvent, buffer)}
}

// CountDrops mirrors every dropped event into ctr — conventionally
// rec.Counter(SubDroppedCounter) — in addition to the local Dropped
// tally. Set it before subscribing: OnProgress runs under the recorder
// mutex, so the counter must be resolved up front (a Counter add is a
// bare atomic, safe there; a Recorder.Counter lookup would deadlock).
func (c *ChanSub) CountDrops(ctr *Counter) { c.counter = ctr }

// OnProgress implements Subscriber with a non-blocking send.
func (c *ChanSub) OnProgress(ev ProgressEvent) {
	select {
	case c.ch <- ev:
	default:
		c.dropped.Add(1)
		c.counter.Add(1)
	}
}

// Events is the stream to drain. The channel is never closed by the
// subscriber; consumers stop reading when the run is over.
func (c *ChanSub) Events() <-chan ProgressEvent { return c.ch }

// Dropped reports how many events were discarded on a full buffer.
func (c *ChanSub) Dropped() uint64 { return c.dropped.Load() }

// TTYRenderer renders events as a live, single-line progress display —
// what cmd/castan -progress shows on stderr. Progress events overwrite
// the current line with \r; stage boundaries and notes print durable
// lines. Write errors are ignored: a broken TTY must not fail a run.
type TTYRenderer struct {
	W io.Writer

	mu       sync.Mutex
	lineOpen bool
}

// NewTTYRenderer returns a renderer writing to w.
func NewTTYRenderer(w io.Writer) *TTYRenderer { return &TTYRenderer{W: w} }

// OnProgress implements Subscriber.
func (t *TTYRenderer) OnProgress(ev ProgressEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	endLine := func() {
		if t.lineOpen {
			fmt.Fprint(t.W, "\n")
			t.lineOpen = false
		}
	}
	switch ev.Kind {
	case KindStageBegin:
		endLine()
		fmt.Fprintf(t.W, "==> %s\n", ev.Stage)
	case KindProgress:
		if ev.Total > 0 {
			fmt.Fprintf(t.W, "\r    %s: %s %d/%d", ev.Stage, ev.Name, ev.Done, ev.Total)
		} else {
			fmt.Fprintf(t.W, "\r    %s: %s %d", ev.Stage, ev.Name, ev.Done)
		}
		t.lineOpen = true
	case KindStageEnd:
		endLine()
		fmt.Fprintf(t.W, "<== %s (%d counters moved)\n", ev.Stage, len(ev.Counters))
	case KindNote:
		endLine()
		fmt.Fprintf(t.W, "    %s: %s\n", ev.Stage, ev.Name)
	}
}

// ReadProgressEvents decodes a JSONL stream written by JSONLSink back
// into events (the tracediff side of the seam).
func ReadProgressEvents(r io.Reader) ([]ProgressEvent, error) {
	var out []ProgressEvent
	dec := json.NewDecoder(r)
	for {
		var ev ProgressEvent
		if err := dec.Decode(&ev); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("obs: decode progress event %d: %w", len(out)+1, err)
		}
		out = append(out, ev)
	}
}
