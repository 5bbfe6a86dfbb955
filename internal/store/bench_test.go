package store

import (
	"sync"
	"testing"

	"castan/internal/nfhash"
	"castan/internal/rainbow"
)

// ringPayload is the stored form of the table Analyze builds for a ring
// NF's hash site (DefaultConfig(20) at coverage 8: 2^19 chains of 64
// links over the UDP flow space), the largest entry a store holds.
var ringPayload = sync.OnceValues(func() ([]byte, error) {
	space := nfhash.UDPFlowSpace{SrcNet: 0x0a00, DstIP: 0xc0a80101, DstPort: 80}
	tbl, err := rainbow.Build(nfhash.RingHash, space, rainbow.Config{Bits: 20, Chains: 1 << 19, ChainLen: 64, Seed: 0x9a3b})
	if err != nil {
		return nil, err
	}
	return tbl.Serialize()
})

var benchSink []byte

// BenchmarkPutTable times committing the ring table to a store entry.
func BenchmarkPutTable(b *testing.B) {
	payload, err := ringPayload()
	if err != nil {
		b.Fatal(err)
	}
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(KindRainbow, "ring", payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGetTable times reading the ring table's entry back — the
// store's share of a warm ring-NF analysis.
func BenchmarkGetTable(b *testing.B) {
	payload, err := ringPayload()
	if err != nil {
		b.Fatal(err)
	}
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Put(KindRainbow, "ring", payload); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, ok := s.Get(KindRainbow, "ring")
		if !ok {
			b.Fatal("stored table read as a miss")
		}
		benchSink = got
	}
}
