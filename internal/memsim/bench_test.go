package memsim

import (
	"testing"

	"castan/internal/obs"
)

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

// BenchmarkProbeBatch times discovery-shaped probes, one warm-up and one
// timed round each, and reports the cost per probe line read: "fits" is
// 64 sets of 32 stride-8 lines, which ProbeBatch counts; "overflows" is
// 64 sets of L3Ways+1 lines of one contention set each, which it must
// simulate.
func BenchmarkProbeBatch(b *testing.B) {
	geo := DefaultGeometry()
	line := uint64(geo.LineBytes)
	fits := make([][]uint64, 64)
	for s := range fits {
		for a := 0; a < 32; a++ {
			fits[s] = append(fits[s], 0x10000000+uint64(s*32+a)*line*8)
		}
	}
	scout := New(geo, 2018)
	bySet := make([][]uint64, geo.NumContentionSets())
	var overflows [][]uint64
	for a := uint64(0x10000000); len(overflows) < 64; a += line * 8 {
		cs := scout.DebugContentionSet(a)
		if bySet[cs] = append(bySet[cs], a); len(bySet[cs]) == geo.L3Ways+1 {
			overflows = append(overflows, bySet[cs])
			bySet[cs] = nil
		}
	}
	for _, c := range []struct {
		name string
		sets [][]uint64
	}{{"fits", fits}, {"overflows", overflows}} {
		b.Run(c.name, func(b *testing.B) {
			h := New(geo, 2018)
			rec := obs.New(obs.NewFakeClock(1))
			h.SetObs(rec)
			lines := 0
			for _, s := range c.sets {
				lines += len(s)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink += h.ProbeBatch(c.sets, 1)[0]
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lines*2), "ns/line")
			if counted := rec.Counter("memsim.probes_counted").Value() > 0; counted != (c.name == "fits") {
				b.Fatalf("%s: probes counted: %v", c.name, counted)
			}
		})
	}
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
