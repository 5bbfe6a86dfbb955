package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
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
	idx := map[string]int{}
	for _, ev := range evs {
		i, ok := idx[ev.Name]
		if !ok {
			i = len(m.Phases)
			idx[ev.Name] = i
			m.Phases = append(m.Phases, Phase{Name: ev.Name})
		}
		m.Phases[i].Count++
		m.Phases[i].TotalNanos += ev.Dur
	}
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

// ValidateChromeTrace checks that data matches the exporter's schema:
// a strict JSON array, one event object per line bracketed by "[" and
// "]" lines, every event carrying name/ph/pid/tid/ts, and every "X"
// event a duration. It returns the number of events, or an error naming
// the first offending line.
func ValidateChromeTrace(data []byte) (int, error) {
	var all []map[string]any
	if err := json.Unmarshal(data, &all); err != nil {
		return 0, fmt.Errorf("trace is not a JSON array: %w", err)
	}
	if len(all) == 0 {
		return 0, fmt.Errorf("trace holds no events")
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) < 3 || strings.TrimSpace(lines[0]) != "[" || strings.TrimSpace(lines[len(lines)-1]) != "]" {
		return 0, fmt.Errorf("trace body is not one event per line inside [ ... ] lines")
	}
	body := lines[1 : len(lines)-1]
	if len(body) != len(all) {
		return 0, fmt.Errorf("%d events but %d body lines; expected one event per line", len(all), len(body))
	}
	for i, line := range body {
		var ev map[string]any
		if err := json.Unmarshal([]byte(strings.TrimSuffix(strings.TrimSpace(line), ",")), &ev); err != nil {
			return 0, fmt.Errorf("line %d: not a JSON event object: %w", i+2, err)
		}
		for _, key := range []string{"name", "ph", "pid", "tid", "ts"} {
			if _, ok := ev[key]; !ok {
				return 0, fmt.Errorf("line %d: event missing %q", i+2, key)
			}
		}
		ph, _ := ev["ph"].(string)
		switch ph {
		case "X":
			d, ok := ev["dur"].(float64)
			if !ok || d < 0 {
				return 0, fmt.Errorf("line %d: complete event missing nonnegative dur", i+2)
			}
		case "M", "C":
		default:
			return 0, fmt.Errorf("line %d: unexpected phase %q", i+2, ph)
		}
		if ts, ok := ev["ts"].(float64); !ok || ts < 0 {
			return 0, fmt.Errorf("line %d: ts is not a nonnegative number", i+2)
		}
	}
	return len(all), nil
}

// ValidateChromeTraceFile validates the file at path.
func ValidateChromeTraceFile(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return ValidateChromeTrace(bytes.TrimSpace(data))
}
