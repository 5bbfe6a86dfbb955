package retry

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// recordingSleep collects every scheduled delay without waiting.
func recordingSleep(delays *[]time.Duration) func(context.Context, time.Duration) error {
	return func(_ context.Context, d time.Duration) error {
		*delays = append(*delays, d)
		return nil
	}
}

func TestDelaySchedule(t *testing.T) {
	p := Policy{Base: 10 * time.Millisecond, Max: 160 * time.Millisecond, Factor: 2}
	want := []time.Duration{
		10 * time.Millisecond,
		20 * time.Millisecond,
		40 * time.Millisecond,
		80 * time.Millisecond,
		160 * time.Millisecond,
		160 * time.Millisecond, // capped
		160 * time.Millisecond,
	}
	for i, w := range want {
		if got := p.Delay(i); got != w {
			t.Errorf("Delay(%d) = %v, want %v", i, got, w)
		}
	}
}

func TestDelayJitterDeterministic(t *testing.T) {
	p := Policy{Base: 100 * time.Millisecond, Max: time.Second, Factor: 2, Jitter: 0.5, Seed: 42}
	// The jittered schedule is a pure function of (policy, seed): two
	// evaluations agree exactly, and every delay stays within
	// [(1-Jitter)·d, d] of the unjittered curve.
	plain := Policy{Base: p.Base, Max: p.Max, Factor: p.Factor}
	for i := 0; i < 8; i++ {
		a, b := p.Delay(i), p.Delay(i)
		if a != b {
			t.Fatalf("Delay(%d) not deterministic: %v vs %v", i, a, b)
		}
		full := plain.Delay(i)
		if a > full || a < time.Duration(float64(full)*0.5) {
			t.Errorf("Delay(%d) = %v outside [%v, %v]", i, a, full/2, full)
		}
	}
	// A different seed must move at least one delay (decorrelation).
	q := p
	q.Seed = 43
	same := true
	for i := 0; i < 8; i++ {
		if p.Delay(i) != q.Delay(i) {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 42 and 43 produced identical jittered schedules")
	}
}

// TestDoPinnedSchedule pins the exact schedule Do executes: which
// attempts run, and which delays are slept, all without real waiting.
func TestDoPinnedSchedule(t *testing.T) {
	var delays []time.Duration
	var attempts []int
	p := Policy{
		Base: 5 * time.Millisecond, Max: 40 * time.Millisecond, Factor: 2,
		Attempts: 5, Sleep: recordingSleep(&delays),
	}
	err := Do(context.Background(), p, func(a int) error {
		attempts = append(attempts, a)
		return fmt.Errorf("attempt %d failed", a)
	})
	if err == nil || err.Error() != "attempt 4 failed" {
		t.Fatalf("err = %v, want the last attempt's error", err)
	}
	if want := []int{0, 1, 2, 3, 4}; fmt.Sprint(attempts) != fmt.Sprint(want) {
		t.Errorf("attempts = %v, want %v", attempts, want)
	}
	want := []time.Duration{
		5 * time.Millisecond, 10 * time.Millisecond,
		20 * time.Millisecond, 40 * time.Millisecond,
	}
	if fmt.Sprint(delays) != fmt.Sprint(want) {
		t.Errorf("slept %v, want %v", delays, want)
	}
}

func TestDoSucceedsMidway(t *testing.T) {
	var delays []time.Duration
	calls := 0
	p := Policy{Attempts: 10, Sleep: recordingSleep(&delays)}
	err := Do(context.Background(), p, func(int) error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 3 || len(delays) != 2 {
		t.Errorf("calls=%d delays=%d, want 3 calls and 2 sleeps", calls, len(delays))
	}
}

func TestStopShortCircuits(t *testing.T) {
	var delays []time.Duration
	perm := errors.New("permanent")
	calls := 0
	p := Policy{Attempts: 10, Sleep: recordingSleep(&delays)}
	err := Do(context.Background(), p, func(int) error {
		calls++
		return Stop(perm)
	})
	if !errors.Is(err, perm) {
		t.Fatalf("err = %v, want the permanent error unwrapped", err)
	}
	if calls != 1 || len(delays) != 0 {
		t.Errorf("calls=%d delays=%d, want exactly one attempt and no sleep", calls, len(delays))
	}
	if Stop(nil) != nil {
		t.Error("Stop(nil) should stay nil")
	}
}

func TestContextCancelStopsRetries(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	boom := errors.New("boom")
	p := Policy{Attempts: 100, Sleep: func(c context.Context, _ time.Duration) error {
		cancel()
		return c.Err()
	}}
	err := Do(ctx, p, func(int) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the last real failure", err)
	}
	if calls != 1 {
		t.Errorf("calls = %d, want 1 (canceled during the first sleep)", calls)
	}
	// A context canceled before the first attempt surfaces ctx.Err().
	err = Do(ctx, Policy{}, func(int) error { calls++; return boom })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled Do = %v, want context.Canceled", err)
	}
}

func TestRealSleepHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	err := Do(ctx, Policy{Base: 10 * time.Second, Attempts: 2}, func(int) error {
		return errors.New("fail")
	})
	if err == nil {
		t.Fatal("expected an error")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("canceled sleep still waited %v", elapsed)
	}
}
