package pcap

import (
	"bytes"
	"testing"
	"time"
)

// FuzzPcapRead feeds the reader arbitrary bytes (`castan testbed -pcap` and
// workload.FromPCAP open whatever file they are given): it must never
// panic or allocate past its record cap, and the frames it does return
// must survive being written out and read back.
func FuzzPcapRead(f *testing.F) {
	var valid bytes.Buffer
	w, err := NewWriter(&valid)
	if err != nil {
		f.Fatal(err)
	}
	for i, fr := range [][]byte{{0xde, 0xad, 0xbe, 0xef}, bytes.Repeat([]byte{7}, 60)} {
		if err := w.Write(Record{Time: time.Unix(int64(i), 0), Data: fr}); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:30])
	f.Add(append([]byte{0xa1, 0xb2, 0xc3, 0xd4}, valid.Bytes()[4:]...)) // big-endian magic
	f.Add([]byte("not a capture"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		frames, _ := r.ReadAll() // a truncated tail still yields the records before it
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		var kept [][]byte
		for _, fr := range frames {
			if len(fr) > 1<<20 {
				t.Fatalf("record of %d bytes exceeds the reader's cap", len(fr))
			}
			if len(fr) == 0 || len(fr) > 65535 {
				continue // the writer refuses empty records and truncates past its snap length
			}
			if err := w.Write(Record{Data: fr}); err != nil {
				t.Fatal(err)
			}
			kept = append(kept, fr)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r2, err := NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		again, err := r2.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		if len(again) != len(kept) {
			t.Fatalf("wrote %d frames, read %d", len(kept), len(again))
		}
		for i := range kept {
			if !bytes.Equal(kept[i], again[i]) {
				t.Fatalf("frame %d changed across write/read", i)
			}
		}
	})
}
