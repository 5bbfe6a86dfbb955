package rainbow

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"castan/internal/nfhash"
)

// TestLoadTableSortsMisorderedEntries: a payload whose entries arrive in
// any order loads to the table Serialize wrote — lookups binary-search
// the index, so trusting the payload's order would hide chains.
func TestLoadTableSortsMisorderedEntries(t *testing.T) {
	space := nfhash.RawSpace{Len: 4}
	tbl, err := Build(nfhash.TableHash, space, DefaultConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	data, err := tbl.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	var tj tableJSON
	if err := json.Unmarshal(data, &tj); err != nil {
		t.Fatal(err)
	}
	slices.Reverse(tj.Ends)
	reversed, err := json.Marshal(tj)
	if err != nil {
		t.Fatal(err)
	}
	got, err := LoadTable(reversed, nfhash.TableHash, space)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.SelfCheck(0); err != nil {
		t.Fatalf("reordered payload fails self-check: %v", err)
	}
	again, err := got.Serialize()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatal("reordered payload did not load to the same table")
	}
}

// FuzzLoadTable feeds LoadTable arbitrary bytes (they come from a store
// directory anyone may have written): it must never panic, and a table it
// accepts must be internally consistent — sorted index, stable under a
// Serialize/LoadTable round trip, safe to SelfCheck and Invert.
func FuzzLoadTable(f *testing.F) {
	space := nfhash.RawSpace{Len: 4}
	tbl, err := Build(nfhash.TableHash, space, Config{Bits: 8, Chains: 24, ChainLen: 8, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	valid, err := tbl.Serialize()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"bits":12,"chain_len":8,"seed":1,"nchains":3,"ends":[{"end":9,"starts":[2]},{"end":1,"starts":[3,4]}]}`))
	f.Add([]byte(`{"bits":12,"chain_len":8,"seed":1,"nchains":2,"ends":[{"end":1,"starts":[2]},{"end":1,"starts":[3]}]}`))
	f.Add([]byte(`{"bits":12,"chain_len":8,"seed":1,"nchains":1,"ends":[{"end":18446744073709551615,"starts":[0]}]}`))
	f.Add([]byte(`{"bits":32,"chain_len":1,"seed":0,"nchains":4611686018427387904,"ends":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := LoadTable(data, nfhash.TableHash, space)
		if err != nil {
			return
		}
		if !slices.IsSorted(got.ends) || len(got.ends) != len(got.starts) || got.Chains() == 0 {
			t.Fatalf("accepted table has a malformed index: %d ends, %d starts", len(got.ends), len(got.starts))
		}
		first, err := got.Serialize()
		if err != nil {
			t.Fatal(err)
		}
		reloaded, err := LoadTable(first, nfhash.TableHash, space)
		if err != nil {
			t.Fatalf("Serialize output rejected: %v", err)
		}
		second, err := reloaded.Serialize()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatal("Serialize → LoadTable → Serialize changed the bytes")
		}
		// Walks cost ChainLen (SelfCheck) and ChainLen² (Invert) hash
		// steps; the header is fuzzer-controlled, so only walk short ones.
		if got.ChainLen() <= 64 {
			_ = got.SelfCheck(4)
			got.Invert(0x5a, 4)
		}
	})
}
