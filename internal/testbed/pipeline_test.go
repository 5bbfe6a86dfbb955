package testbed

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"castan/internal/parallel"
	"castan/internal/workload"
)

// The pipeline's failure paths and schedules. Faults are injected
// through the interpFault and simFault seams.

// waitGoroutines fails the test unless the goroutine count falls back to
// base. Measure returns only after its simulator has signalled that it
// is done, but the runtime counts an exiting goroutine until it has
// torn it down, so the count is polled briefly.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines running after Measure returned, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// recovered runs fn and returns what it panicked with, or nil.
func recovered(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

// faultRun is a run whose warm-up and measurement each span several
// chunks, the measurement wrapping the chunk ring twice.
func faultRun() (*workload.Workload, Options) {
	wl := workload.UniRand(workload.ProfileFor("lb-chain"), 2*chunkPackets+3, 2018)
	return wl, Options{Seed: 2018, MeasureCap: 2 * chunksInFlight * chunkPackets}
}

func TestMeasureInterpreterErrorStopsSimulator(t *testing.T) {
	t.Cleanup(func() { interpFault = nil })
	wl, opt := faultRun()
	warm, c := len(wl.Frames), chunkPackets
	injected := errors.New("injected interpreter fault")
	for _, at := range []int{0, c - 1, c, c + 1, warm - 1, warm, warm + 1, warm + chunksInFlight*c + 1, warm + opt.MeasureCap - 1} {
		want := "testbed: measure: "
		if at < warm {
			want = "testbed: warmup: "
		}
		base := runtime.NumGoroutine()
		interpFault = func(p int) error {
			if p == at {
				return injected
			}
			return nil
		}
		m, err := Measure("lb-chain", wl, opt)
		interpFault = nil
		if m != nil || !errors.Is(err, injected) || err.Error() != want+injected.Error() {
			t.Fatalf("fault at packet %d: Measure = %v, %v; want nil, %q", at, m, err, want+injected.Error())
		}
		waitGoroutines(t, base)
	}
}

func TestMeasureSimulatorPanicReraised(t *testing.T) {
	t.Cleanup(func() { simFault = nil })
	wl, opt := faultRun()
	warm, c := len(wl.Frames), chunkPackets
	const injected = "injected simulator fault"
	for _, at := range []int{0, c, warm, warm + chunksInFlight*c + 1, warm + opt.MeasureCap - 1} {
		base := runtime.NumGoroutine()
		simFault = func(p int) {
			if p == at {
				panic(injected)
			}
		}
		v := recovered(func() { _, _ = Measure("lb-chain", wl, opt) })
		simFault = nil
		if p, ok := v.(*parallel.Panic); !ok || p.Value != injected || p.Index != at {
			t.Fatalf("fault at packet %d: Measure panicked with %#v, want a *parallel.Panic of %q at %d", at, v, injected, at)
		}
		waitGoroutines(t, base)
	}
}

// TestMeasureSimulatorPanicContained is the campaign's view of a
// simulator panic: parallel.MapErr contains it on its caller's goroutine
// instead of the process dying on the simulator's.
func TestMeasureSimulatorPanicContained(t *testing.T) {
	t.Cleanup(func() { simFault = nil })
	wl, opt := faultRun()
	const injected = "injected simulator fault"
	simFault = func(p int) {
		if p == chunkPackets+1 {
			panic(injected)
		}
	}
	base := runtime.NumGoroutine()
	v := recovered(func() {
		_, _ = parallel.MapErr(2, 2, func(int) (*Measurement, error) { return Measure("lb-chain", wl, opt) })
	})
	outer, ok := v.(*parallel.Panic)
	if !ok {
		t.Fatalf("MapErr panicked with %#v, want a *parallel.Panic", v)
	}
	if inner, ok := outer.Value.(*parallel.Panic); !ok || inner.Value != injected {
		t.Fatalf("MapErr contained %#v, want Measure's *parallel.Panic of %q", outer.Value, injected)
	}
	waitGoroutines(t, base)
}

// scheduleLines measures four NFs of different classes with w workers
// and prints what each simulated, one line per NF.
func scheduleLines(t *testing.T, w int) string {
	t.Helper()
	names := []string{"lpm-dl1", "nat-rbtree", "lb-chain", "nat-ring"}
	ms, err := parallel.MapErr(w, len(names), func(i int) (*Measurement, error) {
		wl := workload.UniRand(workload.ProfileFor(names[i]), 2*chunkPackets+7, 2018)
		return Measure(names[i], wl, Options{Seed: 2018, MeasureCap: 3*chunkPackets + 1})
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, m := range ms {
		fmt.Fprintf(&b, "%s latency_ns=%v cycles=%v instrs=%v l3_misses=%v mpps=%v mean_cycles=%v mean_l3_misses=%v\n",
			m.NF, m.Latency.Median(), m.Cycles.Median(), m.Instrs.Median(), m.L3Misses.Median(),
			m.ThroughputMpps, m.Cycles.Mean(), m.L3Misses.Mean())
	}
	return b.String()
}

// TestMeasureConcurrentCalls runs four Measure calls at once, as the
// campaign does: eight goroutines share the host, and each call's
// simulator must still see only its own interpreter's accesses.
func TestMeasureConcurrentCalls(t *testing.T) {
	seq := scheduleLines(t, 1)
	if got := scheduleLines(t, 4); got != seq {
		t.Fatalf("concurrent Measure calls differ from sequential ones:\n%s\nwant\n%s", got, seq)
	}
}

// TestMeasureOneProcessor runs Measure with a single P: the interpreter
// and the simulator must take turns through the chunk ring rather than
// wait on each other forever.
func TestMeasureOneProcessor(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	wl, opt := faultRun()
	got, err := Measure("nat-rbtree", wl, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refMeasure("nat-rbtree", wl, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Measure at GOMAXPROCS(1) differs from the single loop: median cycles %v vs %v",
			got.Cycles.Median(), want.Cycles.Median())
	}
}

// TestMeasureAllocsFlatInCap checks that the pipeline reuses its chunks:
// measuring 60 chunks more allocates no more often, since only the
// per-sample result slices grow and each is allocated once. The slack is
// for the allocations the runtime itself makes as the heap grows (the
// single loop shows a few too, and the race detector about ten); one
// allocation per chunk would exceed it twice over.
func TestMeasureAllocsFlatInCap(t *testing.T) {
	const short, long, slack = chunksInFlight * chunkPackets, 16 * chunksInFlight * chunkPackets, 30
	wl := workload.UniRand(workload.ProfileFor("nat-rbtree"), chunkPackets, 2018)
	allocs := func(measure int) float64 {
		return testing.AllocsPerRun(2, func() {
			if _, err := Measure("nat-rbtree", wl, Options{Seed: 2018, MeasureCap: measure}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := allocs(short), allocs(long); b > a+slack {
		t.Errorf("Measure allocates %v times measuring %d packets, %v times measuring %d", b, long, a, short)
	}
}
