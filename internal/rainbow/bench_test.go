package rainbow

import (
	"fmt"
	"sync"
	"testing"

	"castan/internal/nfhash"
)

// The ring NFs' table: RingHash over the tailored UDP flow space. Sized
// down from the pipeline's 2^19 chains so one Build is tens of ms.
var (
	benchSpace = nfhash.UDPFlowSpace{SrcNet: 0x0a00, DstIP: 0xc0a80101, DstPort: 80}
	benchCfg   = Config{Bits: 16, Chains: 1 << 13, ChainLen: 64, Seed: 0x9a3b}
	benchSink  uint64
)

// BenchmarkChainLink times one hash+reduce link of a chain walk — the
// unit cold hash-NF analyses execute tens of millions of times — walked
// one chain at a time (scalar: SelfCheck and Invert) and eight chains in
// lock-step through the fused ring kernel (lanes: Build).
func BenchmarkChainLink(b *testing.B) {
	tbl, err := Build(nfhash.RingHash, benchSpace, Config{Bits: 16, Chains: 1, ChainLen: 1})
	if err != nil {
		b.Fatal(err)
	}
	key := make([]byte, benchSpace.KeyLen())
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		h := uint64(1)
		for i := 0; i < b.N; i++ {
			h = tbl.step(key, tbl.reduce(h, i&63))
		}
		benchSink = h
	})
	b.Run("lanes", func(b *testing.B) {
		b.ReportAllocs()
		var v [nfhash.Lanes]uint64
		for i := 0; i < b.N; i += nfhash.Lanes {
			for j := range v {
				v[j] = tbl.reduce(v[j], i&63)
			}
			tbl.stepLanes(key, &v)
		}
		benchSink = v[0]
	})
}

func BenchmarkBuild(b *testing.B) {
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			cfg := benchCfg
			cfg.Workers = w
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tbl, err := Build(nfhash.RingHash, benchSpace, cfg)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += uint64(tbl.Chains())
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cfg.Chains*cfg.ChainLen), "ns/link")
		})
	}
}

func BenchmarkInvert(b *testing.B) {
	tbl, err := Build(nfhash.RingHash, benchSpace, benchCfg)
	if err != nil {
		b.Fatal(err)
	}
	hash := nfhash.Masked(nfhash.RingHash, benchCfg.Bits)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += uint64(len(tbl.Invert(hash(benchSpace.FromSeed(uint64(i))), 16)))
	}
}

// ringTable is the table Analyze builds for a ring NF's hash site:
// DefaultConfig(20) at coverage 8, 2^19 chains of 64 links over the UDP
// flow space. Built once per process (about a second), outside any timer.
var ringTable = sync.OnceValues(func() (*Table, error) {
	return Build(nfhash.RingHash, benchSpace, Config{Bits: 20, Chains: 1 << 19, ChainLen: 64, Seed: 0x9a3b})
})

// BenchmarkSerialize times encoding the ring table for the store.
func BenchmarkSerialize(b *testing.B) {
	tbl, err := ringTable()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := tbl.Serialize()
		if err != nil {
			b.Fatal(err)
		}
		benchSink += uint64(len(data))
	}
}

// BenchmarkLoadTable times decoding the ring table from its stored bytes
// — the per-table cost of a warm-store run before SelfCheck.
func BenchmarkLoadTable(b *testing.B) {
	tbl, err := ringTable()
	if err != nil {
		b.Fatal(err)
	}
	data, err := tbl.Serialize()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := LoadTable(data, nfhash.RingHash, benchSpace)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += uint64(got.Chains())
	}
}
