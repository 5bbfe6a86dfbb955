package parallel

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"castan/internal/stats"
)

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	if got := Workers(0); got < 1 {
		t.Errorf("Workers(0) = %d, want >= 1", got)
	}
	if got := Workers(-2); got < 1 {
		t.Errorf("Workers(-2) = %d, want >= 1", got)
	}
}

func TestMapOrderedAcrossWorkerCounts(t *testing.T) {
	fn := func(i int) int { return i * i }
	want := Map(1, 100, fn)
	for _, w := range []int{2, 4, 8, 100} {
		got := Map(w, 100, fn)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("w=%d: slot %d = %d, want %d", w, i, got[i], want[i])
			}
		}
	}
}

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	counts := make([]atomic.Int32, 1000)
	ForEach(7, 1000, func(i int) { counts[i].Add(1) })
	for i := range counts {
		if n := counts[i].Load(); n != 1 {
			t.Fatalf("index %d ran %d times", i, n)
		}
	}
	ForEach(4, 0, func(int) { t.Fatal("n=0 must not call fn") })
}

func TestMapErrLowestIndexWins(t *testing.T) {
	errAt := func(bad map[int]error) error {
		_, err := MapErr(8, 50, func(i int) (int, error) { return i, bad[i] })
		return err
	}
	e7, e30 := errors.New("seven"), errors.New("thirty")
	if err := errAt(map[int]error{30: e30, 7: e7}); err != e7 {
		t.Errorf("got %v, want the lowest-index error", err)
	}
	if err := errAt(nil); err != nil {
		t.Errorf("got %v, want nil", err)
	}
	out, err := MapErr(3, 4, func(i int) (int, error) { return i + 1, nil })
	if err != nil || len(out) != 4 || out[3] != 4 {
		t.Errorf("MapErr = %v, %v", out, err)
	}
}

func TestShardSeedDistinct(t *testing.T) {
	seen := map[uint64]int{}
	for shard := 0; shard < 4096; shard++ {
		s := ShardSeed(42, shard)
		if prev, dup := seen[s]; dup {
			t.Fatalf("shards %d and %d collide", prev, shard)
		}
		seen[s] = shard
	}
	if ShardSeed(1, 0) == ShardSeed(2, 0) {
		t.Error("distinct parents must give distinct shard seeds")
	}
}

func TestRNGSkipMatchesSequentialDraws(t *testing.T) {
	seq := stats.NewRNG(2018)
	var want []uint64
	for i := 0; i < 100; i++ {
		want = append(want, seq.Uint64())
	}
	for _, start := range []uint64{0, 1, 17, 99} {
		r := stats.NewRNG(2018)
		r.Skip(start)
		if got := r.Uint64(); got != want[start] {
			t.Errorf("Skip(%d) draw = %x, want %x", start, got, want[start])
		}
	}
	a := stats.NewRNG(7)
	a.Uint64()
	b := a.Clone()
	if a.Uint64() != b.Uint64() {
		t.Error("Clone must continue the same stream")
	}
}

func TestGroupSingleFlight(t *testing.T) {
	var g Group[string, int]
	var computes atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := g.Do("k", func() (int, error) {
				computes.Add(1)
				return 7, nil
			})
			if v != 7 || err != nil {
				t.Errorf("Do = %d, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("fn ran %d times, want 1", n)
	}
}

func TestGroupCachesErrors(t *testing.T) {
	var g Group[int, string]
	boom := errors.New("boom")
	calls := 0
	for i := 0; i < 3; i++ {
		_, err := g.Do(1, func() (string, error) { calls++; return "", boom })
		if err != boom {
			t.Fatalf("attempt %d: err = %v", i, err)
		}
	}
	if calls != 1 {
		t.Errorf("failing fn ran %d times, want 1 (errors are memoized)", calls)
	}
}

func TestMapNestedParallelism(t *testing.T) {
	// The campaign nests fan-outs (tables over NFs over workloads); make
	// sure nothing deadlocks and ordering still holds.
	out := Map(4, 8, func(i int) string {
		inner := Map(4, 8, func(j int) int { return i*10 + j })
		return fmt.Sprint(inner)
	})
	for i, s := range out {
		want := fmt.Sprint(Map(1, 8, func(j int) int { return i*10 + j }))
		if s != want {
			t.Fatalf("slot %d = %s, want %s", i, s, want)
		}
	}
}
