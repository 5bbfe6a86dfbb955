package memsim

import "testing"

// Per-layer yardsticks (ROADMAP north-star aim 1), shaped like the
// isolated drives in bench/layers.go so the two can be read together.

var benchSink uint64

func BenchmarkAccess(b *testing.B) {
	const base = 0x10000000
	b.Run("l1hit", func(b *testing.B) {
		h := New(DefaultGeometry(), 2018)
		line := uint64(h.Geometry().LineBytes)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, cyc := h.Access(base+(uint64(i)%8)*line, 8, false)
			benchSink += cyc
		}
	})
	// A fresh line every access over 512 MiB: nothing is ever resident.
	b.Run("dram", func(b *testing.B) {
		h := New(DefaultGeometry(), 2018)
		line := uint64(h.Geometry().LineBytes)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, cyc := h.Access(base+(uint64(i)*line*67)%(512<<20), 8, false)
			benchSink += cyc
		}
	})
}

// BenchmarkProbeBatch times discovery-shaped probes — 64 sets of 32
// stride-8 lines, one warm-up and one timed round — and reports the cost
// per probe line read.
func BenchmarkProbeBatch(b *testing.B) {
	h := New(DefaultGeometry(), 2018)
	line := uint64(h.Geometry().LineBytes)
	sets := make([][]uint64, 64)
	for s := range sets {
		for a := 0; a < 32; a++ {
			sets[s] = append(sets[s], 0x10000000+uint64(s*32+a)*line*8)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += h.ProbeBatch(sets, 1)[0]
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(sets)*32*2), "ns/line")
}

// BenchmarkFork is what parallel discovery pays per worker shard.
func BenchmarkFork(b *testing.B) {
	h := New(DefaultGeometry(), 2018)
	for p := uint64(0); p < 4; p++ {
		h.Access(p<<30, 8, false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += h.Fork().nextPPN
	}
}
