// Package retry is the deterministic exponential-backoff layer shared by
// the castand worker supervisor and the castand load client. Like every
// timing-adjacent piece of this repo it obeys the determinism rule
// (DESIGN.md decision 6): the backoff schedule is a pure function of the
// policy and its seed — jitter comes from a seeded splitmix64 stream
// keyed by the attempt index, never from the global RNG or the clock —
// so a supervisor restart storm replays identically in tests, and the
// exact schedule can be pinned under an obs.FakeClock.
//
// Sleeping and time are both injectable: Policy.Sleep replaces the
// timer-based wait (tests record the schedule instead of waiting), and
// Policy.Clock drives the optional overall retry deadline (an
// obs.FakeClock makes deadline cuts byte-reproducible, the same trick
// budget.Meter.SetDeadline uses).
package retry

import (
	"context"
	"errors"
	"time"

	"castan/internal/obs"
	"castan/internal/parallel"
)

// Policy describes one backoff schedule. The zero value is usable:
// 10ms base, 1s cap, factor 2, no jitter, 3 attempts.
type Policy struct {
	// Base is the delay before the first retry (default 10ms).
	Base time.Duration
	// Max caps every delay (default 1s).
	Max time.Duration
	// Factor is the per-attempt multiplier (default 2).
	Factor float64
	// Jitter in [0,1] spreads each delay down into
	// [(1-Jitter)·d, d], drawn from the seeded stream (default 0:
	// fully deterministic schedule even across seeds).
	Jitter float64
	// Seed keys the jitter stream. Two policies with equal fields
	// produce identical schedules; distinct seeds decorrelate them.
	Seed uint64
	// Attempts bounds how many times Do invokes fn (default 3;
	// negative or 0 selects the default, use DoForever for unbounded).
	Attempts int
	// Deadline, when positive, bounds the whole Do call measured on
	// Clock: once the clock has advanced Deadline past the first
	// attempt, no further retries are scheduled. Unlike Attempts it
	// depends on time, so tests drive it with an obs.FakeClock.
	Deadline time.Duration
	// Clock measures Deadline (nil = wall clock).
	Clock obs.Clock
	// Sleep replaces the wait between attempts (nil = a real
	// context-aware timer). Tests inject a recorder to pin schedules.
	Sleep func(ctx context.Context, d time.Duration) error
}

func (p Policy) fill() Policy {
	if p.Base <= 0 {
		p.Base = 10 * time.Millisecond
	}
	if p.Max <= 0 {
		p.Max = time.Second
	}
	if p.Factor < 1 {
		p.Factor = 2
	}
	if p.Attempts <= 0 {
		p.Attempts = 3
	}
	return p
}

// Delay returns the wait after attempt (0-based), deterministically:
// min(Base·Factor^attempt, Max), jittered down by at most Jitter·delay
// with a splitmix64 draw keyed on (Seed, attempt). Pure in its inputs.
func (p Policy) Delay(attempt int) time.Duration {
	p = p.fill()
	if attempt < 0 {
		attempt = 0
	}
	d := float64(p.Base)
	for i := 0; i < attempt; i++ {
		d *= p.Factor
		if d >= float64(p.Max) {
			break
		}
	}
	if d > float64(p.Max) {
		d = float64(p.Max)
	}
	if p.Jitter > 0 {
		j := p.Jitter
		if j > 1 {
			j = 1
		}
		// ShardSeed is the repo's standard per-index stream splitter;
		// the top 53 bits make an unbiased [0,1) fraction.
		u := float64(parallel.ShardSeed(p.Seed, attempt)>>11) / float64(1<<53)
		d *= 1 - j*u
	}
	return time.Duration(d)
}

// stop wraps an error fn wants to surface without further retries.
type stop struct{ err error }

func (s stop) Error() string { return s.err.Error() }
func (s stop) Unwrap() error { return s.err }

// Stop marks err as permanent: Do returns it immediately (unwrapped)
// instead of scheduling another attempt. Use it for client errors a
// retry cannot fix (4xx responses, validation failures).
func Stop(err error) error {
	if err == nil {
		return nil
	}
	return stop{err}
}

// Do runs fn until it returns nil, a Stop-wrapped error, the attempt
// budget or deadline runs out, or ctx is done. Between attempts it
// waits Delay(attempt) via the policy's sleeper. The returned error is
// fn's last error (unwrapped for Stop), or ctx's error when the wait
// was interrupted.
func Do(ctx context.Context, p Policy, fn func(attempt int) error) error {
	p = p.fill()
	return run(ctx, p, p.Attempts, fn)
}

// DoForever is Do without an attempt bound: it retries until fn
// succeeds, Stop, Deadline, or ctx cancellation. A Policy with neither
// Deadline nor a cancellable ctx will retry forever — that is the
// supervisor's contract (a worker fleet must never give up), so the
// name carries the warning.
func DoForever(ctx context.Context, p Policy, fn func(attempt int) error) error {
	p = p.fill()
	return run(ctx, p, 0, fn)
}

func run(ctx context.Context, p Policy, attempts int, fn func(attempt int) error) error {
	clock := p.Clock
	if clock == nil {
		clock = obs.NewWallClock()
	}
	var deadlineAt uint64
	if p.Deadline > 0 {
		deadlineAt = clock.Now() + uint64(p.Deadline)
	}
	sleep := p.Sleep
	if sleep == nil {
		sleep = sleepCtx
	}
	var err error
	for attempt := 0; ; attempt++ {
		if e := ctx.Err(); e != nil {
			if err != nil {
				return err
			}
			return e
		}
		err = fn(attempt)
		if err == nil {
			return nil
		}
		var st stop
		if errors.As(err, &st) {
			return st.err
		}
		if attempts > 0 && attempt+1 >= attempts {
			return err
		}
		if deadlineAt > 0 && clock.Now() >= deadlineAt {
			return err
		}
		if e := sleep(ctx, p.Delay(attempt)); e != nil {
			// Interrupted wait: the caller's context wins, but the
			// last real failure is more useful than "canceled".
			return err
		}
	}
}

// sleepCtx is the real timer-based wait, interruptible by ctx.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
