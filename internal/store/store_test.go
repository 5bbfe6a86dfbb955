package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func open(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := open(t)
	payload := []byte(`{"hello":"world"}`)
	if err := s.Put(KindModel, "k1", payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(KindModel, "k1")
	if !ok || string(got) != string(payload) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if _, ok := s.Get(KindModel, "other"); ok {
		t.Error("absent key hit")
	}
	if _, ok := s.Get(KindRainbow, "k1"); ok {
		t.Error("same key under different kind hit")
	}
	// Overwrite wins.
	if err := s.Put(KindModel, "k1", []byte(`2`)); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get(KindModel, "k1"); string(got) != "2" {
		t.Errorf("overwrite lost: %q", got)
	}
	// No temp litter after writes.
	names, _ := filepath.Glob(filepath.Join(s.Dir(), "*.tmp"))
	if len(names) != 0 {
		t.Errorf("temp files left behind: %v", names)
	}
}

// TestCorruptEntriesReadAsMisses is the core robustness contract: no
// on-disk state, however mangled, may surface as anything but a miss, and
// Do re-derives through the miss and heals the entry.
func TestCorruptEntriesReadAsMisses(t *testing.T) {
	payload := []byte(`{"assoc":16}`)
	corrupt := map[string]func(raw []byte) []byte{
		"truncated": func(raw []byte) []byte { return raw[:len(raw)/2] },
		"garbage":   func([]byte) []byte { return []byte("\x00\xffnot json at all") },
		"empty":     func([]byte) []byte { return nil },
		"version-bumped": func(raw []byte) []byte {
			return bytes.Replace(raw, []byte(Schema), []byte("castan-store/v0"), 1)
		},
		"key-mismatch": func(raw []byte) []byte {
			return bytes.Replace(raw, []byte(`"key":"k"`), []byte(`"key":"j"`), 1)
		},
		// The entry as castan-store/v1 wrote it, under the same file name.
		"v1-envelope": func([]byte) []byte {
			return []byte(`{"schema":"castan-store/v1","kind":"cachemodel","key":"k","payload":{"assoc":16}}`)
		},
		"length-mismatch": func(raw []byte) []byte {
			return bytes.Replace(raw, []byte(fmt.Sprintf(`"len":%d`, len(payload))), []byte(fmt.Sprintf(`"len":%d`, len(payload)-1)), 1)
		},
		"flipped-payload-byte": func(raw []byte) []byte {
			raw[len(raw)-1] ^= 1
			return raw
		},
	}
	for name, mangle := range corrupt {
		t.Run(name, func(t *testing.T) {
			s := open(t)
			if err := s.Put(KindModel, "k", payload); err != nil {
				t.Fatal(err)
			}
			path := s.path(KindModel, "k")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			mangled := mangle(bytes.Clone(raw))
			if bytes.Equal(mangled, raw) {
				t.Fatal("mangle left the entry intact")
			}
			if err := os.WriteFile(path, mangled, 0o644); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(KindModel, "k"); ok {
				t.Fatalf("corrupt entry read as hit: %q", got)
			}
			got, hit, err := s.Do(KindModel, "k", func() ([]byte, error) { return payload, nil })
			if err != nil || hit || !bytes.Equal(got, payload) {
				t.Fatalf("Do over a corrupt entry: %q hit=%v err=%v", got, hit, err)
			}
			if healed, err := os.ReadFile(path); err != nil || !bytes.Equal(healed, raw) {
				t.Errorf("entry not healed to the bytes Put writes (err %v)", err)
			}
		})
	}
}

func TestDoSingleFlight(t *testing.T) {
	s := open(t)
	var computes atomic.Int64
	compute := func() ([]byte, error) {
		computes.Add(1)
		return []byte(`42`), nil
	}
	p, hit, err := s.Do(KindModel, "k", compute)
	if err != nil || hit || string(p) != "42" {
		t.Fatalf("first Do: %q hit=%v err=%v", p, hit, err)
	}
	// Second caller in-process rides the memoized flight.
	p, hit, err = s.Do(KindModel, "k", compute)
	if err != nil || !hit || string(p) != "42" {
		t.Fatalf("second Do: %q hit=%v err=%v", p, hit, err)
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("computed %d times", n)
	}
	// A fresh Store over the same dir hits the disk entry.
	s2, err := Open(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	p, hit, err = s2.Do(KindModel, "k", compute)
	if err != nil || !hit || string(p) != "42" {
		t.Fatalf("fresh-store Do: %q hit=%v err=%v", p, hit, err)
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("disk hit recomputed: %d computes", n)
	}
}

func TestDoConcurrentCallersComputeOnce(t *testing.T) {
	s := open(t)
	var computes atomic.Int64
	var hits atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, hit, err := s.Do(KindRainbow, "shared", func() ([]byte, error) {
				computes.Add(1)
				return []byte(`"t"`), nil
			})
			if err != nil {
				t.Error(err)
			}
			if hit {
				hits.Add(1)
			}
		}()
	}
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("computed %d times", n)
	}
	if n := hits.Load(); n != 15 {
		t.Errorf("%d callers reported hits, want 15 (all but the computer)", n)
	}
}

func TestNilStoreIsAlwaysMiss(t *testing.T) {
	var s *Store
	if _, ok := s.Get(KindModel, "k"); ok {
		t.Error("nil store hit")
	}
	if err := s.Put(KindModel, "k", []byte(`x`)); err != nil {
		t.Error(err)
	}
	ran := 0
	p, hit, err := s.Do(KindModel, "k", func() ([]byte, error) { ran++; return []byte(`y`), nil })
	if err != nil || hit || string(p) != "y" || ran != 1 {
		t.Errorf("nil-store Do: %q hit=%v err=%v ran=%d", p, hit, err, ran)
	}
	if s.Dir() != "" {
		t.Error("nil store has a dir")
	}
}

func TestKeyCanonical(t *testing.T) {
	if Key("a", "bc") == Key("ab", "c") {
		t.Error("concatenation ambiguity")
	}
	if Key("x") != Key("x") {
		t.Error("unstable key")
	}
	k := Key("geometry", "region", "seed")
	if len(k) != 32 || strings.ToLower(k) != k {
		t.Errorf("key %q not filename-friendly", k)
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Error("empty dir accepted")
	}
	nested := filepath.Join(t.TempDir(), "a", "b")
	if _, err := Open(nested); err != nil {
		t.Errorf("nested create: %v", err)
	}
}
