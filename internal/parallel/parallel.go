// Package parallel is the deterministic fan-out layer used by every hot
// loop in the repo: rainbow-table chain generation, contention-set
// sweeps and the measurement campaign.
//
// The design invariant — the repo-wide determinism rule (DESIGN.md
// decision 6) — is that the worker count only changes *scheduling*, never
// *output*. Three mechanisms enforce it:
//
//   - work is partitioned by item index, not by worker: fn(i) must depend
//     only on i (plus immutable shared inputs), and results land in slot i
//     of a preallocated slice, so the merge order is the index order no
//     matter which worker ran which item;
//   - randomness inside an item derives from the parent seed and the item
//     index (ShardSeed, or stats.RNG.Skip for splitmix streams that must
//     match a sequential draw order bit-for-bit);
//   - error selection is by lowest index (MapErr), which is exactly what
//     a sequential loop would have produced.
//
// Worker panics are contained rather than process-fatal: every fan-out
// attempts all of its items, records panics with their stacks, and
// re-panics the lowest-index *Panic on the caller's goroutine — the same
// lowest-index rule MapErr uses, so which panic surfaces does not depend
// on the worker count. The panic carries the worker's original stack;
// castand's job boundary contains it like any other panic.
package parallel

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Panic records one contained worker panic: the item (or shard) index
// that panicked, the recovered value, and the worker's stack at the time.
// It implements error so stage guards can wrap it unmodified.
type Panic struct {
	Index int
	Value any
	Stack []byte
}

func (p *Panic) Error() string {
	return fmt.Sprintf("parallel: worker panic on item %d: %v", p.Index, p.Value)
}

// capture runs fn(i), converting a panic into a *Panic record.
func capture(fn func(i int), i int) (p *Panic) {
	defer func() {
		if v := recover(); v != nil {
			p = &Panic{Index: i, Value: v, Stack: debug.Stack()}
		}
	}()
	fn(i)
	return nil
}

// rethrowLowest re-panics the lowest-index contained panic, if any. It
// runs on the caller's goroutine, after every item has been attempted, so
// a recovering caller observes the same surviving side effects at every
// worker count.
func rethrowLowest(panics []*Panic) {
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// Workers resolves a worker-count knob: n if positive, else GOMAXPROCS.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn(i) for every i in [0, n) on up to w workers (resolved
// via Workers). fn must be safe to call concurrently and must depend only
// on its index. ForEach returns after every call has completed.
func ForEach(w, n int, fn func(i int)) {
	w = Workers(w)
	if n <= 0 {
		return
	}
	if w > n {
		w = n
	}
	panics := make([]*Panic, n)
	if w == 1 {
		// The sequential path still attempts every item so that a
		// recovering caller sees the same completed-item set as the
		// parallel path would.
		for i := 0; i < n; i++ {
			panics[i] = capture(fn, i)
		}
		rethrowLowest(panics)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				panics[i] = capture(fn, i)
			}
		}()
	}
	wg.Wait()
	rethrowLowest(panics)
}

// Shards partitions [0, n) into at most w near-equal contiguous ranges
// and runs fn(shard, lo, hi) for each range on its own worker. Use it
// when workers need private mutable state (a forked prober, a scratch
// buffer): the shard index selects the state, and because the partition
// depends only on (w, n), a given (w, n) always maps the same items to
// the same shard. Output determinism across *different* w still requires
// fn's per-item work to be order-independent, as with ForEach.
func Shards(w, n int, fn func(shard, lo, hi int)) {
	w = Workers(w)
	if n <= 0 {
		return
	}
	if w > n {
		w = n
	}
	panics := make([]*Panic, w)
	var wg sync.WaitGroup
	wg.Add(w)
	for s := 0; s < w; s++ {
		lo := s * n / w
		hi := (s + 1) * n / w
		go func(shard, lo, hi int) {
			defer wg.Done()
			panics[shard] = capture(func(int) { fn(shard, lo, hi) }, shard)
		}(s, lo, hi)
	}
	wg.Wait()
	rethrowLowest(panics)
}

// Map computes out[i] = fn(i) for i in [0, n) on up to w workers,
// returning results in index order.
func Map[T any](w, n int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(w, n, func(i int) { out[i] = fn(i) })
	return out
}

// MapErr is Map for fallible work. All items run to completion; if any
// failed, the error of the lowest failing index is returned (what a
// sequential loop would have surfaced first), along with the full result
// slice so callers that tolerate partial failure can inspect it.
func MapErr[T any](w, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	ForEach(w, n, func(i int) { out[i], errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// ShardSeed derives an independent per-shard seed from a parent seed.
// Distinct shards yield well-separated splitmix64 streams; the derivation
// is a pure function of (parent, shard), so it is identical at any worker
// count. Use stats.RNG.Skip instead when a shard must continue the
// parent's own sequential draw order bit-for-bit.
func ShardSeed(parent uint64, shard int) uint64 {
	z := parent + 0x9e3779b97f4a7c15*(uint64(shard)+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Group is a keyed, memoizing single-flight: the first Do for a key runs
// fn while concurrent callers for the same key wait; the (value, error)
// outcome is cached forever after. It replaces "lock a mutex around a
// result map" caching in the campaign, where holding a lock across an
// expensive compute would serialize everything, and plain double-checked
// caching would compute the same key twice.
//
// A panicking fn is contained as one *Panic (Index 0) and re-panicked on
// the goroutine of the caller that ran fn and of those waiting on it, so
// no caller waits on a flight that will never land. It is not cached:
// the key is forgotten before the flight lands, and the next caller runs
// fn afresh.
type Group[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*flight[V]
}

type flight[V any] struct {
	done chan struct{}
	v    V
	err  error
	pan  *Panic
}

// flightJoined, when non-nil, runs whenever Do joins a flight another
// caller is running, before it waits (a test seam; nil outside tests).
var flightJoined func()

// Do returns the cached outcome for key, computing it with fn exactly
// once across all concurrent and future callers unless fn panics.
func (g *Group[K, V]) Do(key K, fn func() (V, error)) (V, error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = map[K]*flight[V]{}
	}
	f, ok := g.m[key]
	if !ok {
		f = &flight[V]{done: make(chan struct{})}
		g.m[key] = f
		g.mu.Unlock()
		g.run(key, f, fn)
	} else {
		g.mu.Unlock()
		if flightJoined != nil {
			flightJoined()
		}
		<-f.done
	}
	if f.pan != nil {
		panic(f.pan)
	}
	return f.v, f.err
}

// run computes key's flight outcome and lands it even if fn panics. A
// panic that is already a *Panic (a fan-out inside fn) is kept as is. A
// panicked flight leaves the map before it lands, so its waiters still
// see the panic and no later caller does.
func (g *Group[K, V]) run(key K, f *flight[V], fn func() (V, error)) {
	defer close(f.done)
	defer func() {
		if v := recover(); v != nil {
			p, ok := v.(*Panic)
			if !ok {
				p = &Panic{Value: v, Stack: debug.Stack()}
			}
			f.pan = p
			g.mu.Lock()
			delete(g.m, key)
			g.mu.Unlock()
		}
	}()
	f.v, f.err = fn()
}
