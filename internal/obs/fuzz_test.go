package obs

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
)

// FuzzReadChromeTrace: a trace file is untrusted input to castan
// tracediff. Arbitrary bytes must never panic the reader, an accepted
// trace holds at least as many events as spans, and the export of a
// recorder scripted by the same bytes must read back to exactly its
// spans (names, starts, durations) and counters.
func FuzzReadChromeTrace(f *testing.F) {
	seeds, err := filepath.Glob("../../cmd/castan/testdata/*_trace.json")
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no trace fixtures: %v", err)
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, bad := range badTraces {
		f.Add([]byte(bad))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if tr, err := ReadChromeTrace(data); err == nil && tr.Events < len(tr.Spans) {
			t.Fatalf("%d events but %d spans", tr.Events, len(tr.Spans))
		}

		// The first 8 bytes pick the clock step, so ticks reach the top
		// of the uint64 range; each of the first 64 bytes then opens a
		// span, ends the innermost open one, or adds to a counter. Names
		// are quoted byte runs, so they carry the quotes and backslashes
		// JSON escapes.
		var step uint64
		if len(data) >= 8 {
			step = binary.BigEndian.Uint64(data)
		}
		rec := New(NewFakeClock(step))
		var open []*Span
		for i, b := range data[:min(len(data), 64)] {
			name := strconv.Quote(string(data[i:min(i+3, len(data))]))
			switch b % 3 {
			case 0:
				open = append(open, rec.Span(name))
			case 1:
				if len(open) > 0 {
					open[len(open)-1].End()
					open = open[:len(open)-1]
				}
			case 2:
				rec.Counter(name).Add(uint64(b) << (b % 57))
			}
		}
		for i := len(open) - 1; i >= 0; i-- {
			open[i].End()
		}
		var buf bytes.Buffer
		if err := rec.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		tr, err := ReadChromeTrace(buf.Bytes())
		if err != nil {
			t.Fatalf("reader refuses the writer's trace: %v\n%s", err, buf.String())
		}
		want := rec.Events()
		for i := range want {
			want[i].ID = 0 // the trace does not export span IDs
		}
		if !reflect.DeepEqual(tr.Spans, want) {
			t.Errorf("spans read back as\n %+v\nwant\n %+v", tr.Spans, want)
		}
		if counters := rec.Snapshot().Counters; !reflect.DeepEqual(tr.Counters, counters) {
			t.Errorf("counters read back as %v, want %v", tr.Counters, counters)
		}
	})
}
