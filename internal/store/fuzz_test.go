package store

import (
	"bytes"
	"fmt"
	"os"
	"testing"
)

// FuzzStoreEnvelope holds Get to its contract over a directory anyone may
// have written: whatever bytes sit in an entry's file, Get neither panics
// nor errors — it misses, or it returns a payload that really is the
// entry's (putting it back reproduces it byte for byte). The same bytes
// offered as a payload must come back from Get exactly as put.
func FuzzStoreEnvelope(f *testing.F) {
	const key = "0123456789abcdef0123456789abcdef"
	seed, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	payload := `{"assoc":16,"line_bytes":64,"sets":[[4096,8192]]}`
	if err := seed.Put(KindModel, key, []byte(payload)); err != nil {
		f.Fatal(err)
	}
	written, err := os.ReadFile(seed.path(KindModel, key))
	if err != nil {
		f.Fatal(err)
	}
	flipped := bytes.Clone(written)
	flipped[len(flipped)-1] ^= 1
	f.Add(written)
	f.Add(written[:len(written)/2])
	f.Add(bytes.Replace(written, []byte(Schema), []byte("castan-store/v0"), 1))
	f.Add(bytes.Replace(written, []byte(KindModel), []byte(KindRainbow), 1))
	f.Add([]byte(`{"schema":"castan-store/v1","kind":"cachemodel","key":"` + key + `","payload":` + payload + `}`))
	f.Add(bytes.Replace(written, []byte(fmt.Sprintf(`"len":%d`, len(payload))), []byte(`"len":4096`), 1))
	f.Add(flipped)
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
				t.Fatal(err)
			}
			again, ok := st.Get(KindModel, key)
			if !ok || !bytes.Equal(got, again) {
				t.Fatalf("payload read from disk did not survive Put/Get: %q -> %q (hit %v)", got, again, ok)
			}
		}
		if err := st.Put(KindRainbow, key, raw); err != nil {
			t.Fatal(err)
		}
		got, ok := st.Get(KindRainbow, key)
		if !ok || !bytes.Equal(raw, got) {
			t.Fatalf("Put %q, Get returned %q (hit %v)", raw, got, ok)
		}
	})
}
