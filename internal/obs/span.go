package obs

import "sort"

// Span is one timed region of the pipeline: a root opened by
// Recorder.Span or a stage opened inside it by Stage. A completed span
// becomes an Event in the recorder's sink; nesting is by time interval,
// not by a recorded link. Spans must start and end on the pipeline
// goroutine (DESIGN.md decision 8) so their clock readings — and
// therefore the trace bytes — stay deterministic under the fake clock.
type Span struct {
	r     *Recorder
	name  string
	id    int64
	start uint64
	stage bool // opened by Stage: End also publishes stage_end
}

// Event is one completed span, as Recorder.Events returns it.
type Event struct {
	Name  string `json:"name"`
	Start uint64 `json:"start_ns"`
	Dur   uint64 `json:"dur_ns"`
	ID    int64  `json:"id"`
}

// Span starts a new root span.
func (r *Recorder) Span(name string) *Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.nextID++
	id := r.nextID
	r.mu.Unlock()
	return &Span{r: r, name: name, id: id, start: r.clock.Now()}
}

// Stage opens a pipeline stage under s: it publishes the stage_begin
// progress event and then starts the stage's span, both under one name, and
// the returned span's End closes both in the reverse order. The name is
// the stage's identity on the event bus, in the trace and in the catalog's
// phase rows, so it is written once per stage.
func (s *Span) Stage(name string) *Span {
	if s == nil {
		return nil
	}
	s.r.StageBegin(name)
	c := s.r.Span(name)
	c.stage = true
	return c
}

// End completes the span and emits it to the event sink; a span opened
// by Stage then publishes its stage_end. End is idempotent-unsafe by
// design: call it exactly once.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := s.r.clock.Now()
	ev := Event{Name: s.name, Start: s.start, Dur: end - s.start, ID: s.id}
	s.r.mu.Lock()
	s.r.events = append(s.r.events, ev)
	s.r.mu.Unlock()
	if s.stage {
		s.r.StageEnd(s.name)
	}
}

// Events returns a copy of the completed spans in sorted emission order:
// by start time, then span ID. Under the fake clock and single-goroutine
// span usage this order — and hence every exporter's output — is
// deterministic.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]Event(nil), r.events...)
	r.mu.Unlock()
	sortEvents(out)
	return out
}

func sortEvents(evs []Event) {
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].Start != evs[j].Start {
			return evs[i].Start < evs[j].Start
		}
		return evs[i].ID < evs[j].ID
	})
}
