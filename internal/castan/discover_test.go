package castan

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"castan/internal/memsim"
	"castan/internal/nf"
	"castan/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestDiscoverModelsPinned pins the bytes of every cache model cold
// discovery derives for the probed NF shapes (the 1-stage LPM and both
// rings), on the default seed and three benchmark DUT seeds, at one and
// two workers. A change to how discovery probes may change its cost but
// never one byte of a model; the golden moves only with a deliberate
// change to the §3.2 algorithm's output (and then the discover/v2 store
// salt in modelStoreKey moves with it). -short checks seed 2018 only.
func TestDiscoverModelsPinned(t *testing.T) {
	seeds := []uint64{2018, 5, 47, 101}
	if testing.Short() {
		seeds = seeds[:1]
	}
	golden := filepath.Join("testdata", "discover-models.golden")
	want := map[string]string{}
	if !*update {
		raw, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
			if k, v, ok := strings.Cut(line, " = "); ok {
				want[k] = v
			}
		}
	}
	var out strings.Builder
	for _, name := range []string{"lpm-dl1", "nat-ring", "lb-ring"} {
		inst, err := nf.New(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range seeds {
			for _, w := range []int{1, 2} {
				hier := memsim.New(memsim.DefaultGeometry(), seed)
				m, err := discoverModel(inst.AttackRegions, hier, Config{Seed: seed, Workers: w}, nil)
				if err != nil {
					t.Fatalf("%s seed %d W=%d: %v", name, seed, w, err)
				}
				var buf bytes.Buffer
				if err := m.Save(&buf); err != nil {
					t.Fatal(err)
				}
				key := fmt.Sprintf("%s seed=%d W=%d", name, seed, w)
				got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
				fmt.Fprintf(&out, "%s = %s\n", key, got)
				if !*update && want[key] != got {
					t.Errorf("%s: model sha256 %s, want %s", key, got, want[key])
				}
			}
		}
	}
	if *update {
		if testing.Short() {
			t.Fatal("-update needs the full seed list; rerun without -short")
		}
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDiscoverFindsHiddenSets grades discovery against the simulator's
// hidden (slice, set) index, the truth TestDiscoverModelsPinned's bytes
// only stand for: on the probed NF shapes, at the pinned seeds and one
// and two workers, discovery finds discoverMaxSets sets, each exactly
// the pool's members of one hidden set (no impure member, nothing of
// that set's pool share missed), and no hidden set twice. -short checks
// seed 2018 only.
func TestDiscoverFindsHiddenSets(t *testing.T) {
	seeds := []uint64{2018, 5, 47, 101}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, name := range []string{"lpm-dl1", "nat-ring", "lb-ring"} {
		inst, err := nf.New(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range seeds {
			for _, w := range []int{1, 2} {
				what := fmt.Sprintf("%s seed=%d W=%d", name, seed, w)
				hier := memsim.New(memsim.DefaultGeometry(), seed)
				m, err := discoverModel(inst.AttackRegions, hier, Config{Seed: seed, Workers: w}, nil)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				// Grade after discovery: the backdoor translates through the
				// page map, and a page it maps first would perturb the probes.
				members := map[int]map[uint64]bool{}
				for _, a := range discoverPool(inst.AttackRegions, hier.Geometry(), seed) {
					hidden := hier.DebugContentionSet(a)
					if members[hidden] == nil {
						members[hidden] = map[uint64]bool{}
					}
					members[hidden][a] = true
				}
				if len(m.Sets) != discoverMaxSets {
					t.Errorf("%s: %d sets found, want %d", what, len(m.Sets), discoverMaxSets)
				}
				seen := map[int]int{}
				for si, s := range m.Sets {
					hidden := hier.DebugContentionSet(s.Addrs[0])
					if prev, dup := seen[hidden]; dup {
						t.Errorf("%s: sets %d and %d are both hidden set %d", what, prev, si, hidden)
					}
					seen[hidden] = si
					got := map[uint64]bool{}
					for _, a := range s.Addrs {
						got[a] = true
					}
					if len(got) != len(s.Addrs) || !maps.Equal(got, members[hidden]) {
						t.Errorf("%s: set %d holds %d addresses, hidden set %d has %d pool members",
							what, si, len(got), hidden, len(members[hidden]))
					}
				}
			}
		}
	}
}

// BenchmarkDiscover times one cold contention-set discovery over
// lpm-dl1's table on the seed-2018 DUT at one worker — stage 1 of
// Analyze, the bulk of a cold 1-stage LPM analysis — and reports the
// probe line reads it spends as probe_line_reads/op, a deterministic
// count next to the wall-clock ns/op.
func BenchmarkDiscover(b *testing.B) {
	inst, err := nf.New("lpm-dl1")
	if err != nil {
		b.Fatal(err)
	}
	var reads uint64
	for i := 0; i < b.N; i++ {
		rec := obs.New(obs.NewFakeClock(1))
		hier := memsim.New(memsim.DefaultGeometry(), 2018)
		hier.SetObs(rec)
		if _, err := discoverModel(inst.AttackRegions, hier, Config{Seed: 2018, Workers: 1}, rec); err != nil {
			b.Fatal(err)
		}
		reads += rec.Counter("memsim.probe_line_reads").Value()
	}
	b.ReportMetric(float64(reads)/float64(b.N), "probe_line_reads/op")
}
