package rainbow

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"castan/internal/nfhash"
)

// rawTable encodes a payload field by field from the layout documented in
// persist.go, malformed ones included — an encoder independent of
// Serialize.
func rawTable(bits, chainLen uint32, seed, nchains uint64, ends []uint32, starts []uint64) []byte {
	le := binary.LittleEndian
	data := append([]byte(tableMagic), make([]byte, tableHeader-len(tableMagic))...)
	le.PutUint32(data[8:], bits)
	le.PutUint32(data[12:], chainLen)
	le.PutUint64(data[16:], seed)
	le.PutUint64(data[24:], nchains)
	for _, end := range ends {
		data = le.AppendUint32(data, end)
	}
	for _, start := range starts {
		data = le.AppendUint64(data, start)
	}
	return data
}

// TestLoadTableRejectsMisorderedEnds: lookups binary-search the index, so
// a payload whose ends are out of order would hide chains that are there.
// Serialize never writes one, so LoadTable refuses it rather than sorting
// it; equal adjacent ends (merged chains) are in order and load.
func TestLoadTableRejectsMisorderedEnds(t *testing.T) {
	space := nfhash.RawSpace{Len: 4}
	tbl, err := Build(nfhash.TableHash, space, DefaultConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	n := tbl.Chains()
	ends := make([]uint32, n)
	for i, end := range tbl.ends {
		ends[i] = uint32(end)
	}
	inOrder := rawTable(uint32(tbl.bits), uint32(tbl.chainLen), tbl.seed, uint64(n), ends, tbl.starts)
	if want, err := tbl.Serialize(); err != nil || !bytes.Equal(inOrder, want) {
		t.Fatalf("reference encoding differs from Serialize (err %v)", err)
	}
	if _, err := LoadTable(inOrder, nfhash.TableHash, space); err != nil {
		t.Fatalf("Serialize output rejected: %v", err)
	}
	slices.Reverse(ends)
	reversed := rawTable(uint32(tbl.bits), uint32(tbl.chainLen), tbl.seed, uint64(n), ends, tbl.starts)
	if _, err := LoadTable(reversed, nfhash.TableHash, space); err == nil {
		t.Fatal("payload with reversed ends accepted")
	}
	if _, err := LoadTable(rawTable(12, 8, 1, 2, []uint32{5, 5}, []uint64{2, 3}), nfhash.TableHash, space); err != nil {
		t.Fatalf("equal adjacent ends rejected: %v", err)
	}
}

// FuzzLoadTable feeds LoadTable arbitrary bytes (they come from a store
// directory anyone may have written): it must never panic or size
// anything from an unchecked header, and a table it accepts must be
// internally consistent — sorted index, re-serializing to the bytes it
// came from, safe to SelfCheck and Invert.
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
	f.Add(valid[:len(valid)-1])
	f.Add(rawTable(32, 1, 0, 1<<62, nil, nil))
	f.Add(rawTable(8, 8, 1, 1, []uint32{1 << 8}, []uint64{2}))
	f.Add(rawTable(8, 8, 1, 2, []uint32{9, 1}, []uint64{2, 3}))
	f.Add(rawTable(8, 8, 1, 2, []uint32{1, 1}, []uint64{2, 3}))
	f.Add([]byte(`{"bits":12,"chain_len":8,"seed":1,"nchains":1,"ends":[{"end":1,"starts":[2]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := LoadTable(data, nfhash.TableHash, space)
		if err != nil {
			return
		}
		if !slices.IsSorted(got.ends) || len(got.ends) != len(got.starts) || got.Chains() == 0 {
			t.Fatalf("accepted table has a malformed index: %d ends, %d starts", len(got.ends), len(got.starts))
		}
		// Every accepted payload is exactly what Serialize writes for the
		// table it loads to, so Serialize → LoadTable → Serialize is the
		// identity on bytes.
		again, err := got.Serialize()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatal("LoadTable → Serialize changed the bytes")
		}
		// Walks cost ChainLen (SelfCheck) and ChainLen² (Invert) hash
		// steps; the header is fuzzer-controlled, so only walk short ones.
		if got.ChainLen() <= 64 {
			_ = got.SelfCheck(4)
			got.Invert(0x5a, 4)
		}
	})
}
