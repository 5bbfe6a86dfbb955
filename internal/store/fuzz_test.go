package store

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// sameJSON reports whether two documents decode to the same value.
// Putting a payload re-encodes it (compaction, HTML-safe escapes), so the
// bytes that come back may differ from the bytes put; the value may not.
func sameJSON(a, b []byte) bool {
	decode := func(data []byte) (v any, ok bool) {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.UseNumber()
		return v, dec.Decode(&v) == nil
	}
	x, okX := decode(a)
	y, okY := decode(b)
	return okX && okY && reflect.DeepEqual(x, y)
}

// FuzzStoreEnvelope holds Get to its contract over a directory anyone may
// have written: whatever bytes sit in an entry's file, Get neither panics
// nor errors — it misses, or it returns a payload that really is the
// entry's (putting it back reproduces it). The same bytes offered as a
// payload must be refused by Put or come back from Get as the value put.
func FuzzStoreEnvelope(f *testing.F) {
	const key = "0123456789abcdef0123456789abcdef"
	seed, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	if err := seed.Put(KindModel, key, []byte(`{"assoc":16,"line_bytes":64,"sets":[[4096,8192]]}`)); err != nil {
		f.Fatal(err)
	}
	written, err := os.ReadFile(seed.path(KindModel, key))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(written)
	f.Add(written[:len(written)/2])
	f.Add(bytes.Replace(written, []byte(Schema), []byte("castan-store/v0"), 1))
	f.Add(bytes.Replace(written, []byte(KindModel), []byte(KindRainbow), 1))
	f.Add([]byte(`{"schema":"castan-store/v1","kind":"cachemodel","key":"` + key + `","payload":null}`))
	f.Add([]byte(`{"a":"< >"}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		st, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(st.path(KindModel, key), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, ok := st.Get(KindModel, key); ok {
			if err := st.Put(KindModel, key, got); err != nil {
				t.Fatalf("Get returned a payload Put refuses: %v", err)
			}
			again, ok := st.Get(KindModel, key)
			if !ok || !sameJSON(got, again) {
				t.Fatalf("payload read from disk did not survive Put/Get: %q -> %q (hit %v)", got, again, ok)
			}
		}
		if len(raw) == 0 {
			return // Put stores a nil payload as JSON null; nothing to compare
		}
		if err := st.Put(KindRainbow, key, raw); err != nil {
			return
		}
		got, ok := st.Get(KindRainbow, key)
		if !ok || !sameJSON(raw, got) {
			t.Fatalf("Put accepted %q, Get returned %q (hit %v)", raw, got, ok)
		}
	})
}
