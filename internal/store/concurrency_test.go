package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// selfChecking is a payload whose integrity is verifiable from its own
// bytes: Pad is N repeated many times, so any torn or interleaved read
// fails the internal consistency check, not just a byte compare.
type selfChecking struct {
	N   int    `json:"n"`
	Pad string `json:"pad"`
}

func makePayload(t *testing.T, n int) []byte {
	t.Helper()
	data, err := json.Marshal(selfChecking{N: n, Pad: strings.Repeat(fmt.Sprintf("%08d", n), 512)})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func checkPayload(raw []byte) error {
	var p selfChecking
	if err := json.Unmarshal(raw, &p); err != nil {
		return fmt.Errorf("payload not JSON: %w", err)
	}
	if want := strings.Repeat(fmt.Sprintf("%08d", p.N), 512); p.Pad != want {
		return fmt.Errorf("payload %d internally inconsistent (torn read)", p.N)
	}
	return nil
}

// TestConcurrentPutGetNoTornReads hammers one (kind, key) slot with
// racing writers and readers: because commits go through rename, every
// successful Get must observe exactly one complete written value — a
// mix of two writes, or a prefix of one, is a contract violation.
func TestConcurrentPutGetNoTornReads(t *testing.T) {
	s := open(t)
	const writers, writes, readers = 4, 25, 8
	stop := make(chan struct{})
	var torn atomic.Int64
	var reads atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if raw, ok := s.Get(KindModel, "slot"); ok {
					reads.Add(1)
					if err := checkPayload(raw); err != nil {
						torn.Add(1)
						t.Error(err)
					}
				}
			}
		}()
	}
	var wwg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			for i := 0; i < writes; i++ {
				if err := s.Put(KindModel, "slot", makePayload(t, w*writes+i)); err != nil {
					t.Errorf("writer %d: %v", w, err)
				}
			}
		}(w)
	}
	wwg.Wait()
	close(stop)
	wg.Wait()
	if torn.Load() != 0 {
		t.Fatalf("%d torn reads out of %d", torn.Load(), reads.Load())
	}
	if reads.Load() == 0 {
		t.Fatal("readers never observed a hit — the race never exercised Get")
	}
	// The final state is one complete write, and no temp litter survives.
	raw, ok := s.Get(KindModel, "slot")
	if !ok {
		t.Fatal("slot empty after all writes")
	}
	if err := checkPayload(raw); err != nil {
		t.Fatal(err)
	}
	if tmps, _ := filepath.Glob(filepath.Join(s.Dir(), "*.tmp")); len(tmps) != 0 {
		t.Errorf("temp files left behind: %v", tmps)
	}
}

// TestMidWriteCrashIsCleanMiss simulates a writer killed (SIGKILL,
// power loss) at each point of the Put sequence and checks the store's
// crash contract: the next process sees either the previous complete
// entry or a clean miss — never an error, never partial bytes — and a
// fresh Put fully recovers the slot.
func TestMidWriteCrashIsCleanMiss(t *testing.T) {
	payload := makePayload(t, 7)
	written := open(t)
	if err := written.Put(KindRainbow, "k", payload); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(written.path(KindRainbow, "k"))
	if err != nil {
		t.Fatal(err)
	}
	// Put writes the header line and the payload separately.
	headerOnly := full[:bytes.IndexByte(full, '\n')+1]

	crashes := map[string]func(t *testing.T, s *Store){
		// Killed after CreateTemp, before any bytes: empty orphan temp.
		"before-write": func(t *testing.T, s *Store) {
			if err := os.WriteFile(filepath.Join(s.Dir(), KindRainbow+"-123.tmp"), nil, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		// Killed mid-Write: a partial entry in the temp file.
		"mid-write": func(t *testing.T, s *Store) {
			if err := os.WriteFile(filepath.Join(s.Dir(), KindRainbow+"-456.tmp"), full[:len(full)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		},
		// Killed after Close, before Rename: a complete entry that
		// never got committed. Still invisible — only the rename publishes.
		"before-rename": func(t *testing.T, s *Store) {
			if err := os.WriteFile(filepath.Join(s.Dir(), KindRainbow+"-789.tmp"), full, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		// The no-rename case on a filesystem without atomic rename: the
		// final file itself holds a prefix. Get must treat it as a miss.
		"torn-final-file": func(t *testing.T, s *Store) {
			if err := os.WriteFile(s.path(KindRainbow, "k"), full[:len(full)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		},
		// The same, torn between Put's two writes: a complete header line
		// announcing a payload that never arrived.
		"torn-after-header": func(t *testing.T, s *Store) {
			if err := os.WriteFile(s.path(KindRainbow, "k"), headerOnly, 0o644); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, crash := range crashes {
		t.Run(name, func(t *testing.T) {
			s := open(t)
			crash(t, s)
			// A fresh Store over the same dir is "the next process".
			s2, err := Open(s.Dir())
			if err != nil {
				t.Fatal(err)
			}
			if raw, ok := s2.Get(KindRainbow, "k"); ok {
				t.Fatalf("crashed write surfaced as a hit: %q", raw)
			}
			// Do re-derives through the miss and heals the slot.
			got, hit, err := s2.Do(KindRainbow, "k", func() ([]byte, error) { return payload, nil })
			if err != nil || hit {
				t.Fatalf("recovery Do: hit=%v err=%v", hit, err)
			}
			if err := checkPayload(got); err != nil {
				t.Fatal(err)
			}
			if raw, ok := s2.Get(KindRainbow, "k"); !ok || checkPayload(raw) != nil {
				t.Fatalf("slot not healed: ok=%v", ok)
			}
		})
	}
}

// TestConcurrentDoDistinctKeys runs the memoizing single-flight across
// many distinct keys at once: each key computes exactly once, flights
// never bleed into each other, and every result lands on disk complete.
func TestConcurrentDoDistinctKeys(t *testing.T) {
	s := open(t)
	const keys, callersPerKey = 8, 6
	computes := make([]atomic.Int64, keys)
	var wg sync.WaitGroup
	for k := 0; k < keys; k++ {
		for c := 0; c < callersPerKey; c++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				key := fmt.Sprintf("key-%d", k)
				got, _, err := s.Do(KindModel, key, func() ([]byte, error) {
					computes[k].Add(1)
					return makePayload(t, k), nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				var p selfChecking
				if err := json.Unmarshal(got, &p); err != nil || p.N != k {
					t.Errorf("key %d got payload for %d (err %v) — flights bled", k, p.N, err)
				}
			}(k)
		}
	}
	wg.Wait()
	for k := 0; k < keys; k++ {
		if n := computes[k].Load(); n != 1 {
			t.Errorf("key %d computed %d times", k, n)
		}
		raw, ok := s.Get(KindModel, fmt.Sprintf("key-%d", k))
		if !ok {
			t.Errorf("key %d missing from disk", k)
			continue
		}
		if err := checkPayload(raw); err != nil {
			t.Errorf("key %d: %v", k, err)
		}
	}
}
