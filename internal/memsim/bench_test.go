package memsim

import (
	"testing"

	"castan/internal/obs"
	"castan/internal/stats"
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
// 64 sets of 32 stride-8 lines, no contention set over L3Ways; "overflows"
// is 64 sets of L3Ways+1 lines of one contention set each; "discovery"
// is 64 sets of 215 lines like a grow probe of lpm-dl1's, drawn at random
// from 4 MiB, with one contention set over L3Ways by 1 to 3 lines.
// ProbeBatch computes all three; only the last two evict.
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
	rng := stats.NewRNG(215)
	var discovery [][]uint64
	for len(discovery) < 64 {
		over := geo.L3Ways + 1 + len(discovery)%3
		target := -1
		used := map[uint64]bool{}
		perSet := map[int]int{}
		var probe []uint64
		for len(probe) < 215 {
			a := 0x10000000 + rng.Uint64()%(4<<20/line)*line
			cs := scout.DebugContentionSet(a)
			if target < 0 {
				target = cs
			}
			limit := geo.L3Ways
			if cs == target {
				limit = over
			}
			// Leave room for the target set to reach its count.
			room := 215 - len(probe) - (over - perSet[target])
			if used[a] || perSet[cs] == limit || cs != target && room == 0 {
				continue
			}
			used[a] = true
			perSet[cs]++
			probe = append(probe, a)
		}
		rng.Shuffle(len(probe), func(i, j int) { probe[i], probe[j] = probe[j], probe[i] })
		discovery = append(discovery, probe)
	}
	for _, c := range []struct {
		name string
		sets [][]uint64
	}{{"fits", fits}, {"overflows", overflows}, {"discovery", discovery}} {
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
			counted := rec.Counter("memsim.probes_counted").Value()
			evicts := rec.Counter("memsim.l3_evictions").Value() > 0
			if counted != uint64(b.N*len(c.sets)) || evicts != (c.name != "fits") {
				b.Fatalf("%s: %d of %d probes computed, L3 evictions: %v", c.name, counted, b.N*len(c.sets), evicts)
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
