package testbed

import (
	"testing"

	"castan/internal/workload"
)

// Per-layer yardsticks (ROADMAP north-star aim 1), shaped like the
// isolated drives in bench/layers.go: one Measure per NF class.

func BenchmarkMeasure(b *testing.B) {
	for _, name := range []string{"lpm-dl1", "lb-rbtree", "lb-chain"} {
		b.Run(name, func(b *testing.B) {
			wl := workload.UniRand(workload.ProfileFor(name), 4096, 2018)
			opt := Options{Seed: 2018, MeasureCap: 2048}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Measure(name, wl, opt); err != nil {
					b.Fatal(err)
				}
			}
			packets := float64(b.N * (len(wl.Frames) + opt.MeasureCap))
			b.ReportMetric(packets/1e3/b.Elapsed().Seconds(), "kpps")
		})
	}
}

var benchSink float64

// BenchmarkMaxThroughput is the loss-rate binary search over 8192 service
// times, as Measure runs it once per experiment at the default cap.
func BenchmarkMaxThroughput(b *testing.B) {
	service := make([]float64, 8192)
	for i := range service {
		service[i] = 280 + float64(i*7919%211) // 280-490 ns, no pattern
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += maxThroughput(service, 256)
	}
}
