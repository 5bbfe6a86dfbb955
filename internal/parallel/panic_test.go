package parallel

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// recoverPanic runs fn and returns the contained *Panic it re-threw, or
// nil if fn returned normally. A raw (non-*Panic) panic fails the test.
func recoverPanic(t *testing.T, fn func()) (p *Panic) {
	t.Helper()
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		var ok bool
		if p, ok = v.(*Panic); !ok {
			t.Fatalf("re-panic was not a *Panic: %v", v)
		}
	}()
	fn()
	return nil
}

func TestForEachContainsPanicLowestIndex(t *testing.T) {
	for _, w := range []int{1, 4, 8} {
		var ran atomic.Int64
		p := recoverPanic(t, func() {
			ForEach(w, 16, func(i int) {
				ran.Add(1)
				if i == 3 || i == 11 {
					panic(i)
				}
			})
		})
		if p == nil {
			t.Fatalf("w=%d: panic not surfaced", w)
		}
		if p.Index != 3 {
			t.Fatalf("w=%d: surfaced index %d, want lowest (3)", w, p.Index)
		}
		if p.Value != 3 {
			t.Fatalf("w=%d: value = %v", w, p.Value)
		}
		if len(p.Stack) == 0 {
			t.Fatalf("w=%d: no stack captured", w)
		}
		if got := ran.Load(); got != 16 {
			t.Fatalf("w=%d: only %d/16 items attempted", w, got)
		}
	}
}

func TestPanicIsAnError(t *testing.T) {
	p := &Panic{Index: 5, Value: "boom"}
	var err error = p
	if !strings.Contains(err.Error(), "item 5") || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Error() = %q", err.Error())
	}
	var target *Panic
	if !errors.As(err, &target) {
		t.Fatal("errors.As failed to unwrap *Panic")
	}
}

func TestMapSurvivingSlotsFilled(t *testing.T) {
	for _, w := range []int{1, 4} {
		var out []int
		p := recoverPanic(t, func() {
			out = Map(w, 8, func(i int) int {
				if i == 2 {
					panic("map worker down")
				}
				return i * 10
			})
		})
		if p == nil || p.Index != 2 {
			t.Fatalf("w=%d: panic = %+v", w, p)
		}
		// Map's output escapes via the closure even on panic only if the
		// caller kept a reference; here out is nil because Map never
		// returned. This pins that contract: a panicking Map yields no
		// partial slice.
		if out != nil {
			t.Fatalf("w=%d: Map returned a partial slice through a panic", w)
		}
	}
}

func TestShardsContainsPanicLowestShard(t *testing.T) {
	for _, w := range []int{2, 4} {
		var ran atomic.Int64
		p := recoverPanic(t, func() {
			Shards(w, 8, func(shard, lo, hi int) {
				ran.Add(1)
				panic(shard)
			})
		})
		if p == nil {
			t.Fatalf("w=%d: panic not surfaced", w)
		}
		if p.Index != 0 {
			t.Fatalf("w=%d: surfaced shard %d, want 0", w, p.Index)
		}
		if got := ran.Load(); got != int64(min(w, 8)) {
			t.Fatalf("w=%d: %d shards attempted", w, got)
		}
	}
}

func TestNoPanicFastPathUnchanged(t *testing.T) {
	got := Map(4, 5, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("slot %d = %d", i, v)
		}
	}
}

// TestGroupPanicReleasesEveryCaller holds Do to landing a panicking
// flight: the caller that ran fn and one waiting on it get the same
// *Panic, and neither waits forever. The panic is not cached: a caller
// arriving after the flight landed runs fn again, and its outcome is
// the one cached.
func TestGroupPanicReleasesEveryCaller(t *testing.T) {
	var g Group[string, int]
	joined := make(chan struct{}, 1)
	flightJoined = func() { joined <- struct{}{} }
	t.Cleanup(func() { flightJoined = nil })
	started, release := make(chan struct{}), make(chan struct{})
	do := func(fn func() (int, error)) <-chan any {
		got := make(chan any, 1)
		go func() {
			defer func() { got <- recover() }()
			g.Do("k", fn)
		}()
		return got
	}
	leader := do(func() (int, error) {
		close(started)
		<-release
		panic("build down")
	})
	<-started
	follower := do(func() (int, error) {
		t.Error("fn ran a second time for the same flight")
		return 0, nil
	})
	<-joined
	close(release)
	wait := func(who string, got <-chan any) *Panic {
		t.Helper()
		select {
		case v := <-got:
			p, ok := v.(*Panic)
			if !ok {
				t.Fatalf("%s: recovered %v (%T), want a *Panic", who, v, v)
			}
			return p
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: Do still waiting on a flight whose fn panicked", who)
			return nil
		}
	}
	first := wait("leader", leader)
	if first.Value != "build down" || len(first.Stack) == 0 {
		t.Fatalf("leader's panic = %+v", first)
	}
	if p := wait("follower", follower); p != first {
		t.Fatalf("follower got %p, leader %p: want the same *Panic", p, first)
	}
	runs := 0
	for i := 0; i < 2; i++ {
		v, err := g.Do("k", func() (int, error) {
			runs++
			return 7, nil
		})
		if v != 7 || err != nil {
			t.Fatalf("later caller %d: Do = %d, %v; want 7, nil", i, v, err)
		}
	}
	if runs != 1 {
		t.Fatalf("fn ran %d times after the panic, want once: the rerun's outcome is cached", runs)
	}
}
