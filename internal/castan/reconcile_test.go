package castan

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"castan/internal/budget"
	"castan/internal/expr"
	"castan/internal/memsim"
	"castan/internal/nf"
	"castan/internal/nfhash"
	"castan/internal/obs"
	"castan/internal/pcap"
	"castan/internal/rainbow"
	"castan/internal/solver"
	"castan/internal/store"
	"castan/internal/symbex"
)

// TestReconcileCatalogPinned pins what havoc reconciliation produces on
// the four hash NFs at `castan -packets 6 -states 4000 -seed 2018`: the
// PCAP bytes, and the work counters behind them. The values are the ones
// the eager table-then-brute-force search gave; deferring brute force
// until the table's candidates are all rejected must not move any of
// them except bruteforce_calls itself — zero on the ring NFs, where the
// table's first candidate is always accepted, and nonzero on the chain
// NFs, where colliding packets want one hash value many times over and
// the table's few keys for it are already taken. No NF poses a query
// that ends Unknown: the NATs' reverse-direction havocs, whose forced
// key cannot match (Fig. 14/15), are refuted from their pins by
// solver.QuickFeasible instead of running the 30 000-step search to its
// cap, and they stay unreconciled.
func TestReconcileCatalogPinned(t *testing.T) {
	cases := []struct {
		nf                              string
		pcapSHA                         string
		attempts, checks, brute, unrecd uint64
		reconciled                      int
	}{
		{"nat-ring", "a70a8fa89e49f69c8ebac3dcf70c81c89a2fc6831008106a83fe601a18b142a6", 6, 6, 0, 1, 6},
		{"lb-ring", "3742cc632e0f0526c20bb35f0cc1530561c47896f0b6a8d68f45e4b9174edc9f", 6, 6, 0, 0, 6},
		{"nat-chain", "ad162b1d76b32e1166e303941a08a6925aad4d51b8f59bb4dc3cb2c8cb1816e2", 6, 6, 1, 1, 6},
		{"lb-chain", "dbad7d155232482fcebf6830104f6a78bf3a56ab58321779463541d83a0dbb95", 6, 6, 5, 0, 6},
	}
	for _, tc := range cases {
		t.Run(tc.nf, func(t *testing.T) {
			inst, err := nf.New(tc.nf)
			if err != nil {
				t.Fatal(err)
			}
			rec := obs.New(obs.NewFakeClock(1))
			out, err := Analyze(inst, memsim.New(memsim.DefaultGeometry(), 2018),
				Config{NPackets: 6, MaxStates: 4000, Seed: 2018, Obs: rec, Tables: &testTables})
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "adv.pcap")
			if err := pcap.WriteFile(path, out.Frames); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != tc.pcapSHA {
				t.Errorf("PCAP SHA-256 = %s, want %s", got, tc.pcapSHA)
			}
			for name, want := range map[string]uint64{
				"rainbow.invert_attempts":  tc.attempts,
				"castan.reconcile_checks":  tc.checks,
				"rainbow.bruteforce_calls": tc.brute,
				"solver.queries_unknown":   0,
			} {
				if got := rec.Counter(name).Value(); got != want {
					t.Errorf("%s = %d, want %d", name, got, want)
				}
			}
			if out.HavocsReconciled != tc.reconciled || uint64(len(out.UnreconciledSites)) != tc.unrecd {
				t.Errorf("reconciled %d with unreconciled sites %v, want %d and %d sites",
					out.HavocsReconciled, out.UnreconciledSites, tc.reconciled, tc.unrecd)
			}
		})
	}
}

// havocFixture is one havoc of a two-byte key hashed to eight bits, with
// a table over the whole key space, wired the way concretize wires
// reconcileHavoc.
type havocFixture struct {
	tbl  *rainbow.Table
	hu   nf.HashUse
	h    symbex.HavocRecord
	want uint64
	// table and brute are the two candidate lists for want, exactly as
	// reconcileHavoc asks for them.
	table, brute [][]byte
}

func newHavocFixture(t *testing.T) havocFixture {
	t.Helper()
	hu := nf.HashUse{HashID: 1, Bits: 8, Fn: nfhash.TableHash, Space: nfhash.RawSpace{Len: 2}}
	tbl, err := rainbow.Build(hu.Fn, hu.Space, rainbow.Config{Bits: 8, Chains: 64, ChainLen: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	f := havocFixture{
		tbl: tbl,
		hu:  hu,
		h: symbex.HavocRecord{
			HashID: 1, Packet: 2,
			Key:     []*expr.Expr{expr.Var(1), expr.Var(2)},
			OutVars: []expr.VarID{3},
			Out:     expr.Var(3),
		},
	}
	// A hash value the table knows a few (but fewer than 16) keys for.
	for f.want = 0; f.want < 256; f.want++ {
		if f.table = tbl.Invert(f.want, 16); len(f.table) >= 2 {
			break
		}
	}
	if len(f.table) < 2 || len(f.table) >= 16 {
		t.Fatalf("no hash value with 2..15 table candidates (last had %d)", len(f.table))
	}
	f.brute = tbl.BruteForce(f.want, 48, 8<<8, f.want^uint64(f.h.Packet)*0x9e3779b9)
	if len(f.brute) < 2 {
		t.Fatalf("brute force found %d keys", len(f.brute))
	}
	return f
}

// eager is the search reconcileHavoc did before brute force was deferred,
// kept as the oracle: both lists computed up front, concatenated, taken
// keys dropped, scanned in order for the first key not excluded. It
// returns that key (nil if none) and how many candidates the scan checked.
func (f havocFixture) eager(excluded, taken [][]byte) (key []byte, checks uint64) {
	for _, k := range append(append([][]byte(nil), f.table...), f.brute...) {
		if containsKey(taken, k) {
			continue
		}
		checks++
		if !containsKey(excluded, k) {
			return k, checks
		}
	}
	return nil, checks
}

// reconcile runs one havoc through reconcileHavoc with the excluded keys
// ruled out by constraints and the taken ones already pinned to other
// flows, returning the key it accepted (nil if none) and the counters it
// moved.
func (f havocFixture) reconcile(t *testing.T, excluded, taken [][]byte) (key []byte, checks, bruteCalls uint64) {
	t.Helper()
	var cons []*expr.Expr
	for _, k := range excluded {
		cons = append(cons, expr.Ne(
			expr.Or(expr.Shl(expr.Var(1), expr.Const(8)), expr.Var(2)),
			expr.Const(uint64(k[0])<<8|uint64(k[1]))))
	}
	rec := obs.New(obs.NewFakeClock(1))
	mdl := solver.Model{3: f.want}
	sol := solver.Solver{MaxSteps: 30000, Obs: rec, Hint: mdl}
	usedKeys := map[string]bool{}
	for _, k := range taken {
		usedKeys[string(k)] = true
	}
	pins := reconcileHavoc(&sol, cons, mdl, map[expr.VarID]bool{}, usedKeys, f.h, f.hu, f.tbl)
	if pins != nil {
		for k := range usedKeys {
			if !containsKey(taken, []byte(k)) {
				key = []byte(k)
			}
		}
		if len(usedKeys) != len(taken)+1 || len(pins) != len(key)+len(f.h.OutVars) {
			t.Fatalf("accepted: usedKeys grew by %d, %d pins", len(usedKeys)-len(taken), len(pins))
		}
	}
	return key, rec.Counter("castan.reconcile_checks").Value(), rec.Counter("rainbow.bruteforce_calls").Value()
}

func containsKey(keys [][]byte, k []byte) bool {
	return slices.ContainsFunc(keys, func(have []byte) bool { return bytes.Equal(have, k) })
}

// TestReconcileLazyBruteForceIsTheSameSearch: brute force now runs only
// after the table's candidates were all rejected, and the key accepted —
// and the number of checks a sequential scan needs to reach it, summed
// over both lists — are those of the eager search.
func TestReconcileLazyBruteForceIsTheSameSearch(t *testing.T) {
	f := newHavocFixture(t)
	var fresh [][]byte // brute-force keys the table did not offer
	for _, k := range f.brute {
		if !containsKey(f.table, k) {
			fresh = append(fresh, k)
		}
	}
	if len(fresh) < 2 {
		t.Fatalf("brute force found only %d keys the table did not", len(fresh))
	}
	both := append(append([][]byte(nil), f.table...), fresh...)
	cases := []struct {
		name            string
		excluded, taken [][]byte
		brute           uint64
	}{
		{"first table key accepted", nil, nil, 0},
		{"second table key accepted", f.table[:1], nil, 0},
		{"table keys excluded", f.table, nil, 1},
		{"table keys and a brute-force key excluded", append(f.table[:len(f.table):len(f.table)], fresh[0]), nil, 1},
		{"table keys taken", nil, f.table, 1},
		{"table keys taken, a brute-force key excluded", fresh[:1], f.table, 1},
		{"nothing acceptable", both, nil, 1},
	}
	for _, tc := range cases {
		wantKey, wantChecks := f.eager(tc.excluded, tc.taken)
		key, checks, brute := f.reconcile(t, tc.excluded, tc.taken)
		if !bytes.Equal(key, wantKey) || checks != wantChecks || brute != tc.brute {
			t.Errorf("%s: accepted %x after %d checks with %d brute-force calls; the eager search accepts %x after %d, want %d calls",
				tc.name, key, checks, brute, wantKey, wantChecks, tc.brute)
		}
	}
	if key, checks := f.eager(f.table, nil); key == nil || checks <= uint64(len(f.table)) {
		t.Fatalf("fixture: the eager search never reaches the brute-force list (key %x after %d checks)", key, checks)
	}
}

// TestReconcileBudgetCutDegrades is the reconcile-stage row the fault
// matrix lacks: a rainbow budget that the table build already exhausts
// leaves every havoc site unreconciled behind one "reconcile"
// degradation, and the run still completes, at W=1 and W=2.
func TestReconcileBudgetCutDegrades(t *testing.T) {
	for _, w := range []int{1, 2} {
		out := analyze(t, "lb-chain", Config{NPackets: 4, MaxStates: 2500, Seed: 7, Workers: w, Budget: rainbowCut()})
		if out.HavocsTotal == 0 || out.HavocsReconciled != 0 || !slices.Equal(out.UnreconciledSites, []int{0}) {
			t.Errorf("W=%d: reconciled %d of %d havocs, unreconciled sites %v; want none of several, site 0",
				w, out.HavocsReconciled, out.HavocsTotal, out.UnreconciledSites)
		}
		if len(out.Degradations) != 1 || out.Degradations[0].Stage != "reconcile" {
			t.Errorf("W=%d: degradations = %+v, want exactly one, in stage reconcile", w, out.Degradations)
		}
	}
}

// rainbowCut is a budget whose rainbow stage one chain link exhausts.
func rainbowCut() *budget.Meter {
	m := budget.New(0)
	m.SetStageLimit(budget.StageRainbow, 1)
	return m
}

// TestRainbowStoreKeyPinned pins the content address of lb-chain's table
// — the file name a `castan -nf lb-chain -store` run has written since
// the rainbow/v3 salt — and holds the current code to an entry the
// rainbow/v3 code wrote under it: it must read as a hit, load, pass a
// full self-check, and re-serialize to the same bytes, or existing stores
// go cold (or worse, get rewritten differently by every other run).
func TestRainbowStoreKeyPinned(t *testing.T) {
	inst, err := nf.New("lb-chain")
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.Hashes) != 1 {
		t.Fatalf("lb-chain has %d hash sites", len(inst.Hashes))
	}
	h := inst.Hashes[0]
	_, diskKey, _ := rainbowSite(h)
	if want := "9bfade52db40c1eddb6d0348e35079d5"; diskKey != want {
		t.Fatalf("rainbow store key = %s, want %s", diskKey, want)
	}
	st, err := store.Open("testdata")
	if err != nil {
		t.Fatal(err)
	}
	payload, ok := st.Get(store.KindRainbow, diskKey)
	if !ok {
		t.Fatal("pinned entry not readable from testdata")
	}
	tbl, err := rainbow.LoadTable(payload, h.Fn, h.Space)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.SelfCheck(0); err != nil {
		t.Fatal(err)
	}
	again, err := tbl.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, payload) {
		t.Fatal("re-serialized table differs from the stored payload")
	}
}

// TestRainbowSiteKeysTableContent: a table's addresses name what it is
// built from, not where it is used. nat-ring's forward and reverse sites
// share both; the same width and space under TableHash share neither.
func TestRainbowSiteKeysTableContent(t *testing.T) {
	inst, err := nf.New("nat-ring")
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.Hashes) != 2 {
		t.Fatalf("nat-ring has %d hash sites", len(inst.Hashes))
	}
	keys := func(h nf.HashUse) [2]string {
		cacheKey, diskKey, _ := rainbowSite(h)
		return [2]string{cacheKey, diskKey}
	}
	ring := keys(inst.Hashes[0])
	if rev := keys(inst.Hashes[1]); rev != ring {
		t.Errorf("nat-ring's two sites are keyed %q and %q", ring, rev)
	}
	table := inst.Hashes[0]
	table.Fn = nfhash.TableHash
	if k := keys(table); k[0] == ring[0] || k[1] == ring[1] {
		t.Errorf("TableHash and RingHash over one width and space share a key: %q", k)
	}
}
