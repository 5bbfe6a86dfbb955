package obs

import (
	"sync"
	"testing"
)

// TestConcurrentInstrumentsAndSubscribers is the -race workout for the
// whole package: many goroutines hammer counters, gauges, histograms and
// publishes while a ChanSub drains concurrently. Beyond being race-free,
// the bus must deliver sequence numbers strictly increasing to each
// subscriber (publish order == seq order) and account for every event as
// either received or dropped.
func TestConcurrentInstrumentsAndSubscribers(t *testing.T) {
	const (
		workers     = 8
		perWorker   = 500
		publishers  = 4
		perPubEvent = 300
	)
	rec := New(NewFakeClock(1))
	sub := NewChanSub(publishers * perPubEvent) // big enough: no drops expected
	small := NewChanSub(8)                      // tiny: drops expected, still race-free
	rec.Subscribe(sub)
	rec.Subscribe(small)

	var wg sync.WaitGroup

	// Instrument writers.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := rec.Counter("race.counter")
			h := rec.Histogram("race.hist", 1, 8, 64)
			g := rec.Gauge("race.gauge")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(uint64(i % 100))
				g.Set(uint64(i))
				// Also exercise create-on-first-use under contention.
				rec.Counter("race.counter2").Add(2)
			}
		}(w)
	}

	// Spans on a single goroutine (per the determinism rule) interleaved
	// with the concurrent instrument traffic.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			sp := rec.Span("race.span")
			rec.Span("race.child").End()
			sp.End()
		}
	}()

	// Concurrent publishers — a campaign fanning analyses over one
	// recorder. Interleaving is nondeterministic here; ordering per
	// subscriber must still hold.
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perPubEvent; i++ {
				switch i % 4 {
				case 0:
					rec.StageBegin("race.stage")
				case 1:
					rec.Progress("race.stage", "batch", uint64(i), perPubEvent)
				case 2:
					rec.StageEnd("race.stage")
				default:
					rec.Note("race.stage", "tick")
				}
			}
		}(p)
	}

	// Drain concurrently with publishing.
	var drained []ProgressEvent
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range sub.Events() {
			drained = append(drained, ev)
		}
	}()

	wg.Wait()
	// Publishing is over; hand the channel's remaining buffer to the
	// drainer and stop it.
	close(sub.ch)
	<-done

	const published = publishers * perPubEvent
	if got := len(drained) + int(sub.Dropped()); got != published {
		t.Fatalf("received %d + dropped %d != published %d", len(drained), sub.Dropped(), published)
	}
	last := uint64(0)
	for i, ev := range drained {
		if ev.Seq <= last {
			t.Fatalf("event %d: seq %d not strictly after %d (lost ordering)", i, ev.Seq, last)
		}
		last = ev.Seq
	}
	if sub.Dropped() != 0 {
		t.Errorf("big subscriber dropped %d events, want 0", sub.Dropped())
	}
	if got := int(small.Dropped()) + len(drainSmall(small)); got != published {
		t.Errorf("small subscriber accounts for %d events, want %d", got, published)
	}

	if got := rec.Counter("race.counter").Value(); got != workers*perWorker {
		t.Errorf("race.counter = %d, want %d", got, workers*perWorker)
	}
	if got := rec.Counter("race.counter2").Value(); got != 2*workers*perWorker {
		t.Errorf("race.counter2 = %d, want %d", got, 2*workers*perWorker)
	}
	if got := rec.Histogram("race.hist").Count(); got != workers*perWorker {
		t.Errorf("race.hist count = %d, want %d", got, workers*perWorker)
	}
}

func drainSmall(c *ChanSub) []ProgressEvent {
	var out []ProgressEvent
	for {
		select {
		case ev := <-c.ch:
			out = append(out, ev)
		default:
			return out
		}
	}
}

// TestConcurrentSnapshotDuringPublish ensures snapshotting (the /metricsz
// path) is safe while publishes and instrument writes are in flight.
func TestConcurrentSnapshotDuringPublish(t *testing.T) {
	rec := New(NewFakeClock(1))
	rec.Subscribe(NewChanSub(16))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rec.Counter("snap.counter").Inc()
				rec.StageEnd("snap")
			}
		}()
	}
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if m := rec.Snapshot(); m == nil {
					t.Error("nil snapshot from live recorder")
					return
				}
			}
		}()
	}
	wg.Wait()
}
