package interp_test

import (
	"testing"

	"castan/internal/interp"
	"castan/internal/ir"
	"castan/internal/nf"
	"castan/internal/workload"
)

// Per-layer yardsticks (ROADMAP north-star aim 1), shaped like the
// isolated drive in bench/layers.go.

// BenchmarkStep runs lb-chain over 2048 uniform-random frames per
// iteration and reports the cost per interpreted instruction: bare, and
// with the two hooks the testbed and the analyses install.
func BenchmarkStep(b *testing.B) {
	frames := workload.UniRand(workload.ProfileFor("lb-chain"), 2048, 2018).Frames
	for _, mode := range []string{"bare", "hooked"} {
		b.Run(mode, func(b *testing.B) {
			inst, err := nf.New("lb-chain")
			if err != nil {
				b.Fatal(err)
			}
			// One counted pass installs the flow state, so every timed
			// pass executes the same instructions.
			var instrs, events int
			inst.Machine.Hooks.OnInstr = func(*ir.Func, *ir.Instr) { instrs++ }
			pass := func() {
				for _, fr := range frames {
					if _, err := inst.Process(fr); err != nil {
						b.Fatal(err)
					}
				}
			}
			pass()
			instrs = 0
			pass()
			perPass := instrs
			inst.Machine.Hooks = interp.Hooks{}
			if mode == "hooked" {
				inst.Machine.Hooks = interp.Hooks{
					OnInstr: func(*ir.Func, *ir.Instr) { events++ },
					OnMem:   func(interp.MemAccess) { events++ },
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pass()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*perPass), "ns/instr")
		})
	}
}

var benchSink uint64

// BenchmarkMemoryRead is Memory.Read on the shapes setup code and symbex
// issue: 4- and 8-byte fields scattered over a 1 MiB table.
func BenchmarkMemoryRead(b *testing.B) {
	mem := interp.NewMemory()
	const base, size = 0x10000000, 1 << 20
	for a := uint64(0); a < size; a += 8 {
		mem.Write(base+a, a*0x9e3779b97f4a7c15, 8)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := uint64(i) * 0x9e3779b1 % (size - 8)
		benchSink += mem.Read(base+off&^3, 4) + mem.Read(base+off&^7, 8)
	}
}
