package castan

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"castan/internal/cachemodel"
	"castan/internal/faultinject"
	"castan/internal/memsim"
	"castan/internal/nf"
	"castan/internal/obs"
	"castan/internal/store"
)

// analyzeStored runs one Analyze against the store directory with its own
// store handle and recorder and no shared table cache — the shape of
// separate processes sharing a store.
func analyzeStored(t *testing.T, name, dir string, cfg Config) (*Output, *obs.Recorder) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
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
// overwrites, never a model the search is steered by.
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
			st, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
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
			dir := t.TempDir()
			cold, _ := analyzeStored(t, "lpm-dl1", dir, cfg)

			files, err := filepath.Glob(filepath.Join(dir, store.KindModel+"-*.json"))
			if err != nil || len(files) != 1 {
				t.Fatalf("model entries on disk: %v (%v)", files, err)
			}
			c.corrupt(t, dir, files[0])

			warm, rec := analyzeStored(t, "lpm-dl1", dir, cfg)
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
			if !reflect.DeepEqual(storedComparable(cold), storedComparable(warm)) {
				t.Error("re-discovered output differs from cold output")
			}

			// The overwrite healed the entry: a third run hits.
			_, rec3 := analyzeStored(t, "lpm-dl1", dir, cfg)
			if v := rec3.Counter("castan.store.hits").Value(); v != 1 {
				t.Errorf("healed entry not hit: hits = %d", v)
			}
		})
	}
}

// TestStoreRainbowSelfCheckGate covers the rainbow trust boundary end to
// end through the store: a persisted table is only used after SelfCheck
// rewalks sample chains, so an entry whose bytes decode fine but whose
// chain data was tampered with is rebuilt from scratch and overwritten —
// it can never reach reconciliation.
func TestStoreRainbowSelfCheckGate(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{NPackets: 10, MaxStates: 4000, Seed: 1}
	cold, _ := analyzeStored(t, "lb-chain", dir, cfg)

	rfiles, err := filepath.Glob(filepath.Join(dir, store.KindRainbow+"-*.json"))
	if err != nil || len(rfiles) == 0 {
		t.Fatalf("no rainbow entries persisted: %v (%v)", rfiles, err)
	}

	// Tables come from disk, after the self-check.
	warm, recWarm := analyzeStored(t, "lb-chain", dir, cfg)
	if v := recWarm.Counter("castan.store.hits").Value(); v == 0 {
		t.Error("warm run loaded no artifacts from the store")
	}
	if !reflect.DeepEqual(storedComparable(cold), storedComparable(warm)) {
		t.Error("warm output differs from cold output")
	}

	// Tamper with the chain data inside the (valid) envelopes: every end
	// hash is flipped, so LoadTable succeeds but every chain rewalk fails.
	type endJSON struct {
		End    uint64   `json:"end"`
		Starts []uint64 `json:"starts"`
	}
	var tamperedBytes [][]byte
	for _, f := range rfiles {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var env struct {
			Schema  string          `json:"schema"`
			Kind    string          `json:"kind"`
			Key     string          `json:"key"`
			Payload json.RawMessage `json:"payload"`
		}
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatal(err)
		}
		var tj struct {
			Bits     int       `json:"bits"`
			ChainLen int       `json:"chain_len"`
			Seed     uint64    `json:"seed"`
			NChains  int       `json:"nchains"`
			Ends     []endJSON `json:"ends"`
		}
		if err := json.Unmarshal(env.Payload, &tj); err != nil {
			t.Fatal(err)
		}
		for i := range tj.Ends {
			tj.Ends[i].End ^= 0xdeadbeef
		}
		payload, err := json.Marshal(tj)
		if err != nil {
			t.Fatal(err)
		}
		env.Payload = payload
		mangled, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(f, mangled, 0o644); err != nil {
			t.Fatal(err)
		}
		tamperedBytes = append(tamperedBytes, mangled)
	}

	out3, rec3 := analyzeStored(t, "lb-chain", dir, cfg)
	if v := rec3.Counter("castan.store.misses").Value(); v == 0 {
		t.Error("tampered rainbow entry was trusted")
	}
	if v := rec3.Counter("castan.store.writes").Value(); v == 0 {
		t.Error("rebuilt table not written back")
	}
	if !reflect.DeepEqual(storedComparable(cold), storedComparable(out3)) {
		t.Error("output through tampered store differs from cold output")
	}
	for i, f := range rfiles {
		healed, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(healed, tamperedBytes[i]) {
			t.Errorf("entry %s not healed after rebuild", filepath.Base(f))
		}
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
