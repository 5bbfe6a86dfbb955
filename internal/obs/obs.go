// Package obs is the repo's zero-dependency observability layer: named
// counters and gauges, fixed-bucket histograms, nested spans, and
// exporters (a metrics JSON snapshot and a Chrome trace_event file, both
// of which it also reads back).
// Every analysis layer — symbex, solver, memsim, rainbow, and the castan
// pipeline — records into a *Recorder, and later PRs prove their speedups
// against the emitted numbers.
//
// The layer obeys the repo-wide determinism rule (DESIGN.md decisions 6
// and 8): with the injectable clock in fake mode, the recorded output is
// byte-identical at every worker count. Three mechanisms make that hold
// under internal/parallel fan-out:
//
//   - counters and histograms are commutative: the cells are atomics and
//     every write is an add, so the merged totals cannot depend on how
//     worker goroutines interleaved — the atomic cells are the per-worker
//     shards and addition is the deterministic merge;
//   - time comes from a Clock. The wall clock is for CLIs and profiling;
//     tests and goldens inject a FakeClock that advances a fixed step per
//     reading, so timestamps count clock readings instead of nanoseconds
//     and stay byte-stable ("no wall-clock in test mode");
//   - spans are created and ended on the pipeline goroutine only, and
//     events are emitted in sorted order, so the trace is a deterministic
//     function of the pipeline's (deterministic) control flow.
//
// All methods are nil-receiver safe: a nil *Recorder hands out nil
// instruments whose methods no-op, so instrumented code never branches on
// "is observability on".
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Clock supplies monotonic timestamps in nanoseconds since the clock's
// own epoch. Implementations must be safe for concurrent use.
type Clock interface {
	Now() uint64
}

// NewWallClock returns a real monotonic clock anchored at creation time.
func NewWallClock() Clock {
	return &wallClock{base: time.Now()}
}

type wallClock struct{ base time.Time }

func (c *wallClock) Now() uint64 { return uint64(time.Since(c.base)) }

// FakeClock is the deterministic test clock: every reading advances the
// clock by a fixed step, so "time" counts clock readings. As long as the
// readings happen in a deterministic order (the pipeline goroutine), the
// resulting timestamps are byte-stable across runs and worker counts.
type FakeClock struct {
	step uint64
	now  atomic.Uint64
}

// NewFakeClock returns a FakeClock advancing stepNanos per reading
// (default 1000, i.e. one microsecond per reading in Chrome traces).
func NewFakeClock(stepNanos uint64) *FakeClock {
	if stepNanos == 0 {
		stepNanos = 1000
	}
	return &FakeClock{step: stepNanos}
}

// Now advances the clock by one step and returns the new time.
func (c *FakeClock) Now() uint64 { return c.now.Add(c.step) }

// Recorder is the per-run sink for all instruments. Instruments are
// created on first use and live for the recorder's lifetime; hot paths
// should look an instrument up once and hold the pointer.
//
// Beyond the post-hoc snapshot, a recorder is also a live event bus:
// Subscribe attaches ProgressEvent subscribers and the pipeline publishes
// stage boundaries, batch progress and degradation notes through the
// StageBegin/StageEnd/Progress/Note methods (see progress.go). With no
// subscribers every publish method is a no-op that reads no clock and
// touches no instrument, so an unsubscribed run's telemetry bytes are
// unchanged.
type Recorder struct {
	clock Clock

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	events   []Event
	nextID   int64

	// Event-bus state (progress.go). subs/seq/watermark are guarded by
	// mu; hasSubs is the lock-free fast path every publish checks first.
	subs      []Subscriber
	hasSubs   atomic.Bool
	seq       uint64
	watermark map[string]uint64
}

// New creates a recorder. A nil clock selects the wall clock; tests pass
// NewFakeClock for byte-stable output.
func New(clock Clock) *Recorder {
	if clock == nil {
		clock = NewWallClock()
	}
	return &Recorder{
		clock:    clock,
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// NowNanos reads the recorder's clock (0 on a nil recorder).
func (r *Recorder) NowNanos() uint64 {
	if r == nil {
		return 0
	}
	return r.clock.Now()
}

// Counter returns the named counter, creating it on first use.
func (r *Recorder) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Recorder) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named fixed-bucket histogram, creating it with
// the given ascending upper bounds on first use (later calls reuse the
// existing buckets and ignore bounds). An empty bounds list falls back to
// ExpBuckets(1, 16).
func (r *Recorder) Histogram(name string, bounds ...uint64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		if len(bounds) == 0 {
			bounds = ExpBuckets(1, 16)
		}
		b := append([]uint64(nil), bounds...)
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		h = &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
		r.hists[name] = h
	}
	return h
}

// ExpBuckets builds n exponentially growing upper bounds starting at
// start and doubling (1, 2, 4, ... for start=1).
func ExpBuckets(start uint64, n int) []uint64 {
	if start == 0 {
		start = 1
	}
	b := make([]uint64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}

// Counter is a monotonically increasing named count. Adds are atomic and
// commutative, so totals are worker-count invariant.
type Counter struct{ v atomic.Uint64 }

// Add increases the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the counter.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge tracks a last-set value plus its high-water mark. The maximum is
// order-independent; the last value is deterministic only when Set is
// called from one goroutine (which is how the pipeline uses it).
type Gauge struct {
	v   atomic.Uint64
	max atomic.Uint64
}

// Set records the gauge's current value.
func (g *Gauge) Set(v uint64) {
	if g == nil {
		return
	}
	g.v.Store(v)
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Value reads the last-set value.
func (g *Gauge) Value() uint64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Max reads the high-water mark.
func (g *Gauge) Max() uint64 {
	if g == nil {
		return 0
	}
	return g.max.Load()
}

// Histogram counts observations into fixed buckets: counts[i] holds
// observations v <= bounds[i] (first matching bucket), counts[len(bounds)]
// is the overflow bucket. All cells are atomic adds, so histograms merged
// from concurrent workers are deterministic.
type Histogram struct {
	bounds []uint64
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count reads the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reads the sum of all observed values.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}
