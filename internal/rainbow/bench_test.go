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
// unit cold hash-NF analyses execute tens of millions of times — over
// the ring NFs' hash and space: one chain at a time (scalar: SelfCheck
// and Invert), eight in lock-step through Fill and the hash (lanes: the
// walk of any other hash), eight straight from their seeds through
// nfhash.RingKey.Lanes (portable) and thirty-two through the AVX-512
// kernel (simd: Build on a CPU that has it). Every walk is 64 links;
// ns/op is per link.
func BenchmarkChainLink(b *testing.B) {
	const chainLen = 64
	tbl, err := Build(nfhash.RingHash, benchSpace, Config{Bits: 20, Chains: 1, ChainLen: chainLen})
	if err != nil {
		b.Fatal(err)
	}
	key := make([]byte, benchSpace.KeyLen())
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		h := uint64(1)
		for i := 0; i < b.N; i += chainLen {
			h = tbl.walk(key, h)
		}
		benchSink = h
	})
	walkers := []struct {
		name string
		hash func([]byte) uint64
		simd bool
	}{
		// A wrapper around RingHash is not RingHash itself, so it takes
		// the generic lane walk.
		{"lanes", func(key []byte) uint64 { return nfhash.RingHash(key) }, false},
		{"portable", nfhash.RingHash, false},
		{"simd", nfhash.RingHash, true},
	}
	for _, w := range walkers {
		if w.simd && !haveAVX512() {
			continue
		}
		_, width, walkGroup := tbl.walker(benchSpace, w.hash, w.simd)
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			v := make([]uint64, width)
			for i := range v {
				v[i] = uint64(i)
			}
			for i := 0; i < b.N; i += width * chainLen {
				walkGroup(key, v)
			}
			benchSink = v[0]
		})
	}
}

// BenchmarkBuild times a whole ring-NF table build on each ring walk
// path, at the smallest catalog table's 2048 chains and at 2^13, one
// and two workers. ns/link divides by chains × links.
func BenchmarkBuild(b *testing.B) {
	paths := []bool{false}
	if haveAVX512() {
		paths = append(paths, true)
	}
	for _, simd := range paths {
		for _, chains := range []int{2048, benchCfg.Chains} {
			for _, w := range []int{1, 2} {
				name := fmt.Sprintf("%s/chains=%d/w=%d", pathName(simd), chains, w)
				b.Run(name, func(b *testing.B) {
					saved := useSIMD
					useSIMD = simd
					defer func() { useSIMD = saved }()
					cfg := benchCfg
					cfg.Chains, cfg.Workers = chains, w
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
