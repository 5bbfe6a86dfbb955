package cachemodel

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzModelLoad feeds Load arbitrary bytes (models travel through the
// on-disk store): it must never panic, and a model it accepts must be a
// partition of its addresses that Save writes back to an equal model and
// that a Tracker can walk.
func FuzzModelLoad(f *testing.F) {
	m := &Model{Assoc: 4, LineBytes: 64, Sets: []ContentionSet{
		{Addrs: []uint64{0x1000, 0x2000, 0x3000}},
		{Addrs: []uint64{0x1040, 0x2040}},
	}}
	m.Reindex()
	var valid bytes.Buffer
	if err := m.Save(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"assoc":0,"line_bytes":64,"sets":[]}`))
	f.Add([]byte(`{"assoc":4,"line_bytes":64,"sets":[[]]}`))
	f.Add([]byte(`{"assoc":4,"line_bytes":64,"sets":[[64,128],[128]]}`))
	f.Add([]byte(`{"assoc":4,"line_bytes":3,"sets":[[18446744073709551615]]}`))
	f.Add([]byte(`{"assoc":4,"line_bytes":48,"sets":[[4096,8192]]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if got.Assoc <= 0 || got.LineBytes <= 0 || got.LineBytes&(got.LineBytes-1) != 0 {
			t.Fatalf("accepted model has assoc %d, line %d", got.Assoc, got.LineBytes)
		}
		for i, s := range got.Sets {
			if len(s.Addrs) == 0 {
				t.Fatalf("accepted model has empty set %d", i)
			}
			for _, a := range s.Addrs {
				if got.SetOf(a) != i {
					t.Fatalf("address %#x of set %d is indexed to set %d", a, i, got.SetOf(a))
				}
			}
		}
		var buf bytes.Buffer
		if err := got.Save(&buf); err != nil {
			t.Fatal(err)
		}
		again, err := Load(&buf)
		if err != nil {
			t.Fatalf("Save output rejected: %v", err)
		}
		if !reflect.DeepEqual(got, again) {
			t.Fatal("Save → Load changed the model")
		}
		// Load does not check that addresses are line-aligned (static
		// attack regions may be unaligned), so nothing is asserted about
		// what the tracker places — only that walking an accepted model is
		// safe.
		tr := got.NewTracker()
		for _, a := range tr.Candidates() {
			tr.RecordAccess(a)
		}
		tr.Clone().ContendedSets()
	})
}
