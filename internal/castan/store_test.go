package castan

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"castan/internal/budget"
	"castan/internal/cachemodel"
	"castan/internal/faultinject"
	"castan/internal/memsim"
	"castan/internal/nf"
	"castan/internal/obs"
	"castan/internal/rainbow"
	"castan/internal/store"
)

// analyzeStored runs one Analyze against the store directory with its own
// store handle and recorder and no shared table cache — the shape of
// separate processes sharing a store.
func analyzeStored(t *testing.T, name, dir string, cfg Config) (*Output, *obs.Recorder) {
	t.Helper()
	return analyzeIn(t, name, openStore(t, dir), cfg)
}

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// analyzeIn runs one Analyze against the given store handle with its own
// recorder and no shared table cache.
func analyzeIn(t *testing.T, name string, st *store.Store, cfg Config) (*Output, *obs.Recorder) {
	t.Helper()
	rec := obs.New(obs.NewFakeClock(1))
	cfg.Store = st
	cfg.Obs = rec
	inst, err := nf.New(name)
	if err != nil {
		t.Fatal(err)
	}
	hier := memsim.New(memsim.DefaultGeometry(), 2024)
	out, err := Analyze(inst, hier, cfg)
	if err != nil {
		t.Fatalf("Analyze(%s): %v", name, err)
	}
	return out, rec
}

// storedComparable zeroes the only fields that legitimately differ
// between a cold and a warm run of the same analysis: wall-clock time and
// the telemetry snapshot (which records discovery effort).
func storedComparable(o *Output) Output {
	c := *o
	c.AnalysisSeconds = 0
	c.Telemetry = nil
	return c
}

func TestStoreWarmRunSkipsDiscovery(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{NPackets: 20, MaxStates: 3000, Seed: 1}
	cold, recCold := analyzeStored(t, "lpm-dl1", dir, cfg)
	if cold.ContentionSetsFound == 0 {
		t.Fatal("cold run found no contention sets")
	}
	if v := recCold.Counter("castan.store.misses").Value(); v == 0 {
		t.Error("cold run recorded no store miss")
	}
	if v := recCold.Counter("castan.store.writes").Value(); v == 0 {
		t.Error("cold run persisted nothing")
	}
	if v := recCold.Counter("memsim.probe_line_reads").Value(); v == 0 {
		t.Error("cold run did not probe")
	}

	warm, recWarm := analyzeStored(t, "lpm-dl1", dir, cfg)
	if v := recWarm.Counter("castan.store.hits").Value(); v != 1 {
		t.Errorf("warm run store hits = %d, want 1", v)
	}
	if v := recWarm.Counter("castan.store.misses").Value(); v != 0 {
		t.Errorf("warm run store misses = %d, want 0", v)
	}
	if v := recWarm.Counter("memsim.probe_line_reads").Value(); v != 0 {
		t.Errorf("warm run still probed: %d line reads", v)
	}
	if !reflect.DeepEqual(storedComparable(cold), storedComparable(warm)) {
		t.Error("warm output differs from cold output")
	}
}

// TestStoreCorruptModelEntryReadsAsMiss: a model entry that cannot be
// trusted — bytes that are no envelope, or a well-formed model for a
// geometry other than the probed one — is a miss that re-derives and
// overwrites, never a model the search is steered by. Each corruption runs
// once with a store handle per run (separate processes) and once with one
// handle for every run (castand): an unusable entry must not be
// remembered past the run that healed it.
func TestStoreCorruptModelEntryReadsAsMiss(t *testing.T) {
	cfg := Config{NPackets: 20, MaxStates: 3000, Seed: 1}
	corruptions := []struct {
		name    string
		corrupt func(t *testing.T, dir, file string)
	}{
		{"not an envelope", func(t *testing.T, _, file string) {
			if err := os.WriteFile(file, []byte("\x00\xffnot an envelope"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"other geometry", func(t *testing.T, dir, _ string) {
			inst, err := nf.New("lpm-dl1")
			if err != nil {
				t.Fatal(err)
			}
			st := openStore(t, dir)
			key := modelStoreKey(memsim.DefaultGeometry(), inst.AttackRegions, cfg.Seed)
			payload, ok := st.Get(store.KindModel, key)
			if !ok {
				t.Fatal("cold run's model entry not found under its key")
			}
			m, err := cachemodel.Load(bytes.NewReader(payload))
			if err != nil {
				t.Fatal(err)
			}
			m.LineBytes *= 2
			var buf bytes.Buffer
			if err := m.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if err := st.Put(store.KindModel, key, buf.Bytes()); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			for _, handle := range []string{"own handle", "shared handle"} {
				t.Run(handle, func(t *testing.T) {
					dir := t.TempDir()
					cold, _ := analyzeStored(t, "lpm-dl1", dir, cfg)

					files, err := filepath.Glob(filepath.Join(dir, store.KindModel+"-*.json"))
					if err != nil || len(files) != 1 {
						t.Fatalf("model entries on disk: %v (%v)", files, err)
					}
					c.corrupt(t, dir, files[0])

					st := openStore(t, dir)
					run := func() *obs.Recorder {
						if handle == "own handle" {
							st = openStore(t, dir)
						}
						warm, rec := analyzeIn(t, "lpm-dl1", st, cfg)
						if !reflect.DeepEqual(storedComparable(cold), storedComparable(warm)) {
							t.Error("output differs from cold output")
						}
						return rec
					}
					rec := run()
					if v := rec.Counter("castan.store.hits").Value(); v != 0 {
						t.Errorf("corrupt entry served as hit (%d)", v)
					}
					if v := rec.Counter("castan.store.misses").Value(); v == 0 {
						t.Error("corrupt entry not recorded as miss")
					}
					if v := rec.Counter("memsim.probe_line_reads").Value(); v == 0 {
						t.Error("corrupt entry did not trigger re-discovery")
					}
					if v := rec.Counter("castan.store.writes").Value(); v == 0 {
						t.Error("re-discovered model not written back")
					}

					// The overwrite healed the entry: every later run hits.
					for i := 0; i < 2; i++ {
						if v := run().Counter("castan.store.hits").Value(); v != 1 {
							t.Errorf("healed entry not hit: hits = %d", v)
						}
					}
				})
			}
		})
	}
}

// TestStoreRainbowSelfCheckGate covers the rainbow trust boundary end to
// end through the store, once for each check that guards it: a table that
// is well-formed but wrong, which only SelfCheck can reject, and an entry
// damaged on disk, which the store's checksum rejects. Either way the run
// counts a miss, rebuilds the table and writes it back — the healed entry
// is byte-identical to the cold run's — and its output is the cold run's:
// a bad entry can never reach reconciliation.
func TestStoreRainbowSelfCheckGate(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{NPackets: 10, MaxStates: 4000, Seed: 1}
	cold, recCold := analyzeStored(t, "lb-chain", dir, cfg)
	inst, err := nf.New("lb-chain")
	if err != nil {
		t.Fatal(err)
	}
	h := inst.Hashes[0]
	_, diskKey, rcfg := rainbowSite(h)
	file := filepath.Join(dir, store.KindRainbow+"-"+diskKey+".json")
	healthy, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("cold run persisted no table: %v", err)
	}

	if v := recCold.Counter("castan.store.writes").Value(); v != 1 {
		t.Fatalf("cold run store writes = %d, want 1", v)
	}
	// Tables come from disk, after the self-check.
	warm, recWarm := analyzeStored(t, "lb-chain", dir, cfg)
	if v := recWarm.Counter("castan.store.hits").Value(); v != 1 {
		t.Errorf("warm run store hits = %d, want 1", v)
	}
	if !reflect.DeepEqual(storedComparable(cold), storedComparable(warm)) {
		t.Error("warm output differs from cold output")
	}

	cases := []struct {
		name   string
		tamper func(t *testing.T)
	}{
		{"selfcheck", func(t *testing.T) {
			// Every chain's end is off by one bit yet inside the hash
			// width, so the payload is well-formed and loads.
			rcfg.Corrupt = func(_ int, end uint64) uint64 { return end ^ 1 }
			bad, err := rainbow.Build(h.Fn, h.Space, rcfg)
			if err != nil {
				t.Fatal(err)
			}
			data, err := bad.Serialize()
			if err != nil {
				t.Fatal(err)
			}
			if tbl, err := rainbow.LoadTable(data, h.Fn, h.Space); err != nil || tbl.SelfCheck(4) == nil {
				t.Fatalf("planted table must load and fail only SelfCheck (load err %v)", err)
			}
			st, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Put(store.KindRainbow, diskKey, data); err != nil {
				t.Fatal(err)
			}
		}},
		{"crc", func(t *testing.T) {
			raw := bytes.Clone(healthy)
			raw[len(raw)-1] ^= 1
			if err := os.WriteFile(file, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.tamper(t)
			out, rec := analyzeStored(t, "lb-chain", dir, cfg)
			// The table's miss and write-back are the cold run's. (No cache
			// model is ever stored for lb-chain, so its model lookup
			// misses on every run.)
			for _, name := range []string{"castan.store.hits", "castan.store.misses", "castan.store.writes"} {
				if v, want := rec.Counter(name).Value(), recCold.Counter(name).Value(); v != want {
					t.Errorf("%s = %d, want the cold run's %d", name, v, want)
				}
			}
			if !reflect.DeepEqual(storedComparable(cold), storedComparable(out)) {
				t.Error("output through the tampered store differs from cold output")
			}
			if healed, err := os.ReadFile(file); err != nil || !bytes.Equal(healed, healthy) {
				t.Errorf("entry not rebuilt to the cold run's bytes (err %v)", err)
			}
		})
	}
}

// TestIdenticalSitesShareOneTable: nat-chain's forward and reverse flow
// tables hash the same width of the same space with the same function,
// so they need one rainbow table. A cold run against an empty store
// builds and persists it once, yet counts and charges it per site: the
// values below are the ones the run had when each site built its own
// table. A warm run loads it once.
func TestIdenticalSitesShareOneTable(t *testing.T) {
	dir := t.TempDir()
	run := func() (*Output, *obs.Recorder) {
		return analyzeStored(t, "nat-chain", dir, Config{NPackets: 6, MaxStates: 4000, Seed: 2018, Budget: budget.New(0)})
	}
	cold, rec := run()
	files, err := filepath.Glob(filepath.Join(dir, store.KindRainbow+"-*.json"))
	if err != nil || len(files) != 1 {
		t.Errorf("rainbow entries on disk: %v (%v), want one", files, err)
	}
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"rainbow.tables", rec.Counter("rainbow.tables").Value(), 2},
		{"rainbow.chains", rec.Counter("rainbow.chains").Value(), 2 * 2048},
		{"castan.budget_ticks", cold.BudgetTicksUsed, 270158},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if _, warm := run(); warm.Counter("castan.store.hits").Value() != 1 {
		t.Errorf("warm run store hits = %d, want 1", warm.Counter("castan.store.hits").Value())
	}
}

// TestStoreFaultedRunBypassesStore pins the never-cache-corrupted rule: a
// run with fault injection armed must neither read nor write the store,
// so a corrupted artifact cannot poison later clean runs.
func TestStoreFaultedRunBypassesStore(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		NPackets:  6,
		MaxStates: 2500,
		Seed:      1,
		Faults:    &faultinject.Plan{Name: "chain-corrupt", Seed: 3, CorruptChainEvery: 1},
	}
	_, rec := analyzeStored(t, "lb-chain", dir, cfg)
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 0 {
		t.Fatalf("faulted run persisted artifacts: %v", files)
	}
	for _, name := range []string{"castan.store.hits", "castan.store.misses", "castan.store.writes"} {
		if v := rec.Counter(name).Value(); v != 0 {
			t.Errorf("faulted run touched the store: %s = %d", name, v)
		}
	}
}

// TestModelStoreKeyPinned pins the content address of lpm-dl1's cache
// model at the default geometry and seed 2018 — the file name a
// `castan -nf lpm-dl1 -store` run has written since the discover/v2
// salt. Any edit to modelStoreKey's inputs or formatting that moves it
// silently cold-starts every existing store; bump the salt on purpose
// instead.
func TestModelStoreKeyPinned(t *testing.T) {
	inst, err := nf.New("lpm-dl1")
	if err != nil {
		t.Fatal(err)
	}
	got := modelStoreKey(memsim.DefaultGeometry(), inst.AttackRegions, 2018)
	if want := "53430df0d8be1b7feab2d8483ca88818"; got != want {
		t.Fatalf("modelStoreKey = %s, want %s", got, want)
	}
}

// TestAnalyzeTelemetryIgnoresProcessHistory pins Analyze as a function of
// its arguments: with no shared table cache, the second of two identical
// runs — each against its own empty store — records exactly what the
// first did, rainbow store misses and writes included. Nothing the first
// run built is left anywhere for the second to find.
func TestAnalyzeTelemetryIgnoresProcessHistory(t *testing.T) {
	cfg := Config{NPackets: 6, MaxStates: 4000, Seed: 1}
	_, rec1 := analyzeStored(t, "lb-chain", t.TempDir(), cfg)
	_, rec2 := analyzeStored(t, "lb-chain", t.TempDir(), cfg)
	c1, c2 := rec1.Snapshot().Counters, rec2.Snapshot().Counters
	if c1["castan.store.writes"] == 0 {
		t.Fatal("first run persisted no rainbow table")
	}
	if !reflect.DeepEqual(c1, c2) {
		t.Errorf("counters differ between two identical runs:\n first: %v\nsecond: %v", c1, c2)
	}
}

// TestSharedTablesBuildOnceAndSkipFaultedRuns pins the caller-owned cache:
// two runs handed the same TableCache build (and persist) each table once
// between them, and a chain-corrupting run handed that cache neither
// serves its corrupted tables from it nor leaves them in it.
func TestSharedTablesBuildOnceAndSkipFaultedRuns(t *testing.T) {
	var tables TableCache
	cfg := Config{NPackets: 6, MaxStates: 2500, Seed: 1, Tables: &tables}

	faulted := cfg
	faulted.Faults = &faultinject.Plan{Name: "chain-corrupt", Seed: 3, CorruptChainEvery: 1}
	bad, _ := analyzeStored(t, "lb-chain", t.TempDir(), faulted)
	if bad.HavocsReconciled != 0 {
		t.Fatalf("%d havocs reconciled through corrupted tables", bad.HavocsReconciled)
	}

	dir := t.TempDir()
	first, rec1 := analyzeStored(t, "lb-chain", dir, cfg)
	if first.HavocsReconciled == 0 {
		t.Fatal("clean run after a corrupted one reconciled nothing: the cache was poisoned")
	}
	rainbowFiles := func() int {
		files, err := filepath.Glob(filepath.Join(dir, store.KindRainbow+"-*.json"))
		if err != nil {
			t.Fatal(err)
		}
		return len(files)
	}
	persisted := rainbowFiles()
	if persisted == 0 {
		t.Fatal("first clean run persisted no table")
	}
	// Same NF, another seed: a different analysis over the same tables.
	cfg.Seed = 2
	_, rec2 := analyzeStored(t, "lb-chain", dir, cfg)
	if got := rainbowFiles(); got != persisted {
		t.Errorf("rainbow entries on disk: %d after the second run, %d after the first", got, persisted)
	}
	w1 := rec1.Counter("castan.store.writes").Value()
	if w2 := rec2.Counter("castan.store.writes").Value(); w1 != uint64(persisted) || w2 != 0 {
		t.Errorf("store writes = %d then %d, want %d then 0", w1, w2, persisted)
	}
	if v := rec2.Counter("rainbow.tables").Value(); v != rec1.Counter("rainbow.tables").Value() || v == 0 {
		t.Errorf("second run used %d tables, first %d", v, rec1.Counter("rainbow.tables").Value())
	}
}

// BenchmarkAnalyzeWarm times what a warm analysis of the two NAT hash
// NFs still pays: nat-chain and nat-ring at 6 packets and 4000 states,
// seed 2018, through a shared TableCache and a model store both filled
// before the timer starts, so rainbow build and discovery are lookups
// and static analysis, symbex and reconciliation are the rest. Each op
// analyzes both NFs.
func BenchmarkAnalyzeWarm(b *testing.B) {
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	var tables TableCache
	run := func() {
		for _, name := range []string{"nat-chain", "nat-ring"} {
			inst, err := nf.New(name)
			if err != nil {
				b.Fatal(err)
			}
			cfg := Config{NPackets: 6, MaxStates: 4000, Seed: 2018, Store: st, Tables: &tables}
			if _, err := Analyze(inst, memsim.New(memsim.DefaultGeometry(), 2018), cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
