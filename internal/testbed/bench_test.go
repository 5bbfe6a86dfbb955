package testbed

import (
	"testing"

	"castan/internal/workload"
)

// Per-layer yardsticks (ROADMAP north-star aim 1), shaped like the
// isolated drives in bench/layers.go: one Measure per NF class, and the
// replay workload's heaviest job at its sizes. Run them at -cpu 1,2:
// with one P the interpreter and the simulator take turns, so the -cpu 1
// number is the pipeline's hand-off cost on a host with no second core.

func BenchmarkMeasure(b *testing.B) {
	for _, job := range []struct {
		nf              string
		frames, measure int
	}{
		{"lpm-dl1", 4096, 2048},
		{"lb-rbtree", 4096, 2048},
		{"lb-chain", 4096, 2048},
		{"nat-rbtree", 16384, 8192},
	} {
		b.Run(job.nf, func(b *testing.B) {
			wl := workload.UniRand(workload.ProfileFor(job.nf), job.frames, 2018)
			opt := Options{Seed: 2018, MeasureCap: job.measure}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Measure(job.nf, wl, opt); err != nil {
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
