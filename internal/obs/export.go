package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// GaugeValue is a gauge's serialized state.
type GaugeValue struct {
	Value uint64 `json:"value"`
	Max   uint64 `json:"max"`
}

// HistogramValue is a histogram's serialized state: Counts[i] holds
// observations <= Bounds[i], Counts[len(Bounds)] is the overflow bucket.
type HistogramValue struct {
	Bounds []uint64 `json:"bounds"`
	Counts []uint64 `json:"counts"`
	Count  uint64   `json:"count"`
	Sum    uint64   `json:"sum"`
}

// Phase aggregates the completed spans sharing one name, in first-start
// order — the per-phase duration summary of the pipeline.
type Phase struct {
	Name       string `json:"name"`
	Count      uint64 `json:"count"`
	TotalNanos uint64 `json:"total_ns"`
}

// Phases groups events by name, in the order each name first appears:
// the phase rule behind both a snapshot's Phases and a trace-only run's.
func Phases(evs []Event) []Phase {
	var out []Phase
	idx := map[string]int{}
	for _, ev := range evs {
		i, ok := idx[ev.Name]
		if !ok {
			i = len(out)
			idx[ev.Name] = i
			out = append(out, Phase{Name: ev.Name})
		}
		out[i].Count++
		out[i].TotalNanos += ev.Dur
	}
	return out
}

// Metrics is a recorder snapshot. JSON encoding is deterministic: map
// keys serialize sorted, and Phases is ordered by first span start.
type Metrics struct {
	Counters   map[string]uint64         `json:"counters,omitempty"`
	Gauges     map[string]GaugeValue     `json:"gauges,omitempty"`
	Histograms map[string]HistogramValue `json:"histograms,omitempty"`
	Phases     []Phase                   `json:"phases,omitempty"`
}

// Snapshot captures every instrument's current state (nil on a nil
// recorder). In-flight spans are not included — end them first.
func (r *Recorder) Snapshot() *Metrics {
	if r == nil {
		return nil
	}
	m := &Metrics{}
	r.mu.Lock()
	if len(r.counters) > 0 {
		m.Counters = make(map[string]uint64, len(r.counters))
		for name, c := range r.counters {
			m.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		m.Gauges = make(map[string]GaugeValue, len(r.gauges))
		for name, g := range r.gauges {
			m.Gauges[name] = GaugeValue{Value: g.Value(), Max: g.Max()}
		}
	}
	if len(r.hists) > 0 {
		m.Histograms = make(map[string]HistogramValue, len(r.hists))
		for name, h := range r.hists {
			hv := HistogramValue{
				Bounds: append([]uint64(nil), h.bounds...),
				Counts: make([]uint64, len(h.counts)),
				Count:  h.Count(),
				Sum:    h.Sum(),
			}
			for i := range h.counts {
				hv.Counts[i] = h.counts[i].Load()
			}
			m.Histograms[name] = hv
		}
	}
	evs := append([]Event(nil), r.events...)
	r.mu.Unlock()
	sortEvents(evs)
	m.Phases = Phases(evs)
	return m
}

// WriteJSON serializes the snapshot as indented JSON (byte-deterministic
// for equal metric values).
func (m *Metrics) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(m)
}

// WriteJSONFile writes the snapshot to a file.
func (m *Metrics) WriteJSONFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := m.WriteJSON(f); err != nil {
		return err
	}
	return f.Close()
}

// ReadMetrics loads a snapshot written by WriteJSON.
func ReadMetrics(r io.Reader) (*Metrics, error) {
	var m Metrics
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("obs: decode metrics: %w", err)
	}
	return &m, nil
}

// usec renders a nanosecond quantity as Chrome's microsecond timestamps
// with fixed nanosecond precision, keeping the bytes deterministic.
type usec uint64

func (u usec) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%d.%03d", uint64(u)/1000, uint64(u)%1000)), nil
}

// chromeEvent is one line of the exported trace. Field order is the
// serialization order.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	Ts    usec           `json:"ts"`
	Dur   *usec          `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace exports the recorder as a Chrome trace_event file:
// a strict JSON array with one event object per line (so the body is
// also line-parseable, which is what castan tracediff check validates). Spans
// become "X" complete events; final counter values become one "C"
// counter sample each at the trace's end timestamp. Load the file in
// chrome://tracing or https://ui.perfetto.dev.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	if r == nil {
		return fmt.Errorf("obs: no recorder")
	}
	events := []chromeEvent{{
		Name:  "process_name",
		Phase: "M",
		Pid:   1,
		Tid:   1,
		Args:  map[string]any{"name": "castan"},
	}}
	var end uint64
	for _, ev := range r.Events() {
		d := usec(ev.Dur)
		events = append(events, chromeEvent{
			Name:  ev.Name,
			Phase: "X",
			Ts:    usec(ev.Start),
			Dur:   &d,
			Pid:   1,
			Tid:   1,
		})
		if ev.Start+ev.Dur > end {
			end = ev.Start + ev.Dur
		}
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.counters))
	for name := range r.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		events = append(events, chromeEvent{
			Name:  name,
			Phase: "C",
			Ts:    usec(end),
			Pid:   1,
			Tid:   1,
			Args:  map[string]any{"value": r.counters[name].Value()},
		})
	}
	r.mu.Unlock()
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	for i, ev := range events {
		raw, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if _, err := bw.Write(raw); err != nil {
			return err
		}
		sep := ",\n"
		if i == len(events)-1 {
			sep = "\n"
		}
		if _, err := bw.WriteString(sep); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("]\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteChromeTraceFile writes the Chrome trace to a file.
func (r *Recorder) WriteChromeTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := r.WriteChromeTrace(f); err != nil {
		return err
	}
	return f.Close()
}

// ChromeTrace is what ReadChromeTrace recovers from a trace file.
type ChromeTrace struct {
	// Spans are the "X" events in file order, with the exact nanosecond
	// ticks the writer encoded (IDs are not exported, so ID is 0).
	Spans []Event
	// Counters holds the final "C" samples (nil when there are none).
	Counters map[string]uint64
	// Events counts every event, "M" metadata included.
	Events int
}

// ReadChromeTrace parses a trace in the layout WriteChromeTrace writes: a
// strict JSON array, one event object per line bracketed by "[" and "]"
// lines, every event carrying name/ph/pid/tid/ts, every "X" event a
// duration, every "X" and "C" event a string name, and only "X", "C" and
// "M" phases. Anything else is an error naming the first offending line.
func ReadChromeTrace(data []byte) (*ChromeTrace, error) {
	var all []map[string]any
	if err := json.Unmarshal(data, &all); err != nil {
		return nil, fmt.Errorf("trace is not a JSON array: %w", err)
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("trace holds no events")
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) < 3 || strings.TrimSpace(lines[0]) != "[" || strings.TrimSpace(lines[len(lines)-1]) != "]" {
		return nil, fmt.Errorf("trace body is not one event per line inside [ ... ] lines")
	}
	body := lines[1 : len(lines)-1]
	if len(body) != len(all) {
		return nil, fmt.Errorf("%d events but %d body lines; expected one event per line", len(all), len(body))
	}
	t := &ChromeTrace{Events: len(all)}
	for i, line := range body {
		var ev map[string]json.RawMessage
		if err := json.Unmarshal([]byte(strings.TrimSuffix(strings.TrimSpace(line), ",")), &ev); err != nil {
			return nil, fmt.Errorf("line %d: not a JSON event object: %w", i+2, err)
		}
		for _, key := range []string{"name", "ph", "pid", "tid", "ts"} {
			if _, ok := ev[key]; !ok {
				return nil, fmt.Errorf("line %d: event missing %q", i+2, key)
			}
		}
		var ph, name string
		_ = json.Unmarshal(ev["ph"], &ph) // not a string: no phase
		dur, durOK := nonnegative(ev["dur"])
		if ph == "X" && !durOK {
			return nil, fmt.Errorf("line %d: complete event missing nonnegative dur", i+2)
		}
		if ph != "X" && ph != "C" && ph != "M" {
			return nil, fmt.Errorf("line %d: unexpected phase %q", i+2, ph)
		}
		ts, ok := nonnegative(ev["ts"])
		if !ok {
			return nil, fmt.Errorf("line %d: ts is not a nonnegative number", i+2)
		}
		if json.Unmarshal(ev["name"], &name) != nil && ph != "M" {
			return nil, fmt.Errorf("line %d: event name is not a string", i+2)
		}
		switch ph {
		case "X":
			t.Spans = append(t.Spans, Event{Name: name, Start: ticks(ts), Dur: ticks(dur)})
		case "C":
			var args map[string]json.RawMessage
			_ = json.Unmarshal(ev["args"], &args) // no args object: no sample
			if v, ok := nonnegative(args["value"]); ok {
				if t.Counters == nil {
					t.Counters = map[string]uint64{}
				}
				t.Counters[name] = sampleValue(v)
			}
		}
	}
	return t, nil
}

// ReadChromeTraceFile reads the trace file at path.
func ReadChromeTraceFile(path string) (*ChromeTrace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ReadChromeTrace(bytes.TrimSpace(data))
}

// nonnegative returns raw's text when it is a JSON number (not a string
// holding one) that is not below zero.
func nonnegative(raw json.RawMessage) (string, bool) {
	var n json.Number
	if len(raw) == 0 || raw[0] == '"' || json.Unmarshal(raw, &n) != nil || n == "" {
		return "", false
	}
	v, _ := n.Float64()
	return string(n), v >= 0
}

// ticks inverts usec: the writer's "<us>.<ns%1000>" form converts back to
// its nanoseconds exactly, any other number through float64.
func ticks(n string) uint64 {
	us, frac, _ := strings.Cut(n, ".")
	if len(frac) == 3 {
		u, err1 := strconv.ParseUint(us, 10, 64)
		f, err2 := strconv.ParseUint(frac, 10, 64)
		if err1 == nil && err2 == nil && u <= (math.MaxUint64-f)/1000 {
			return u*1000 + f
		}
	}
	v, _ := strconv.ParseFloat(n, 64)
	return uint64(v*1000 + 0.5)
}

// sampleValue reads a counter sample: integers exactly, other numbers
// rounded.
func sampleValue(n string) uint64 {
	if v, err := strconv.ParseUint(n, 10, 64); err == nil {
		return v
	}
	v, _ := strconv.ParseFloat(n, 64)
	return uint64(v + 0.5)
}
