package service

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"castan/internal/faultinject"
	"castan/internal/nf"
)

// TestChaosSoak is the acceptance soak for the service's robustness
// contract: a live server fed the full faultinject.MatrixPlans catalog
// across several NFs, concurrent overload (a queue small enough that
// 429 pushback must fire), tiny budgets, and worker-panic chaos —
// simultaneously. The server must survive it all:
//
//   - zero 500s: every response is 200 (valid Report, degraded or not),
//     429 (admission pushback), or 503 (crash/quarantine/drain);
//   - every 200 passes the Report schema gate;
//   - backpressure was actually observed (at least one 429);
//   - every fault-plan request completes (its 429s are retried, so the
//     overload burst cannot starve the matrix) with a valid report, and
//     a degraded one wherever the plan has something to bite on;
//   - worker crashes were contained (counters moved, and healthy
//     requests still succeed afterwards);
//   - a drain during the tail returns valid degraded reports.
func TestChaosSoak(t *testing.T) {
	s := New(Config{
		Workers:         4,
		AnalysisWorkers: 2,
		QueueDepth:      3, // small on purpose: overload must surface as 429s
		TenantCap:       64,
		AllowChaos:      true,
		CrashQuarantine: 2,
	})

	nfs := []string{"nop", "lpm-trie", "nat-chain"}
	var reqs []Request
	// Every fault plan against every NF, plus a tiny-budget variant.
	for _, p := range faultinject.MatrixPlans() {
		for i, name := range nfs {
			reqs = append(reqs, Request{
				NF: name, Packets: 3, MaxStates: 700,
				Seed: uint64(i + 1), Fault: p.Name, Tenant: "fault",
			})
		}
		reqs = append(reqs, Request{
			NF: "lpm-trie", Packets: 3, MaxStates: 700,
			Seed: 1, Fault: p.Name, Budget: 150, Tenant: "fault",
		})
	}
	nFault := len(reqs)
	// Overload burst: more concurrent healthy work than queue+fleet holds.
	for i := 0; i < 30; i++ {
		reqs = append(reqs, Request{
			NF: nfs[i%len(nfs)], Packets: 2, MaxStates: 500,
			Seed: uint64(100 + i), Tenant: fmt.Sprintf("load-%d", i%4), Priority: i % 3,
		})
	}
	type outcome struct {
		req  Request
		resp Response
	}
	results := make(chan outcome, len(reqs))
	var wg sync.WaitGroup
	for _, req := range reqs {
		wg.Add(1)
		go func(req Request) {
			defer wg.Done()
			resp := s.Do(context.Background(), req, nil)
			// The burst can shed or refuse any fault-plan request; those
			// wait it out, so the matrix always runs to completion.
			for req.Fault != "" && resp.Status == 429 {
				time.Sleep(time.Millisecond)
				resp = s.Do(context.Background(), req, nil)
			}
			results <- outcome{req, resp}
		}(req)
	}
	wg.Wait()
	close(results)

	var n429, n503, nDegraded, faultOK int
	for out := range results {
		switch out.resp.Status {
		case 200:
			if err := out.resp.Report.Check(out.req.NF); err != nil {
				t.Errorf("invalid 200 report for %+v: %v", out.req, err)
			}
			if out.resp.Degraded {
				nDegraded++
			}
			if out.req.Fault != "" {
				faultOK++
				if !out.resp.Degraded && faultMustDegrade(t, out.req) {
					// Fault plans must leave a degradation trace — that is
					// the point of the matrix.
					t.Errorf("fault %s on %s produced a clean report", out.req.Fault, out.req.NF)
				}
			}
		case 429:
			n429++
		case 503:
			n503++
		default:
			t.Errorf("request %+v got status %d — the never-500 contract is broken", out.req, out.resp.Status)
		}
	}
	if n429 == 0 {
		t.Error("no 429 observed: overload never hit admission control")
	}
	if faultOK != nFault {
		t.Errorf("%d of %d fault-plan requests completed", faultOK, nFault)
	}
	if nDegraded == 0 {
		t.Error("no degraded report observed")
	}

	// Worker-panic chaos, sequentially so the crash count per shape is
	// exact: two crashes trip the breaker, the third hits quarantine.
	boom := Request{NF: "nop", Packets: 2, MaxStates: 300, Chaos: ChaosPanicWorker, Tenant: "chaos"}
	for i := 0; i < 2; i++ {
		if resp := s.Do(context.Background(), boom, nil); resp.Status != 503 || !strings.Contains(resp.Err, "crashed") {
			t.Fatalf("panic chaos %d = %+v, want 503 crashed", i, resp)
		}
	}
	if resp := s.Do(context.Background(), boom, nil); resp.Status != 503 || !strings.Contains(resp.Err, "quarantined") {
		t.Fatalf("post-breaker chaos = %+v, want 503 quarantined", resp)
	}

	m := s.Metrics()
	if got := m.Counters[CounterCrashes]; got != 2 {
		t.Errorf("%s = %d, want 2", CounterCrashes, got)
	}
	if got := m.Counters[CounterQuarantineOpens]; got != 1 {
		t.Errorf("%s = %d, want 1", CounterQuarantineOpens, got)
	}

	// The fleet is still healthy: a plain request completes cleanly.
	resp := s.Do(context.Background(), Request{NF: "lpm-trie", Packets: 3, MaxStates: 700, Seed: 42}, nil)
	if resp.Status != 200 || resp.Report.Check("lpm-trie") != nil {
		t.Fatalf("post-soak request = %+v, want clean 200", resp)
	}

	// Drain during a final in-flight request: valid degraded 200.
	var drainResp Response
	var dwg sync.WaitGroup
	dwg.Add(1)
	go func() {
		defer dwg.Done()
		drainResp = s.Do(context.Background(), Request{NF: "nat-chain", Packets: 8, MaxStates: 50000, Seed: 7}, nil)
	}()
	waitFor(t, "drain victim in flight", func() bool { _, inflight := s.queueSnapshot(); return inflight >= 1 })
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	dwg.Wait()
	if drainResp.Status != 200 || !drainResp.Degraded {
		t.Fatalf("drain response = %+v, want degraded 200", drainResp)
	}
	if err := drainResp.Report.Check("nat-chain"); err != nil {
		t.Fatalf("drain report invalid: %v", err)
	}
	// The cut reason may be "server draining" or a stage's own budget if
	// the job crossed that checkpoint first — either way the report is a
	// valid partial. TestShutdownDrainsToValidDegradedReports pins the
	// drain-specific reason on a quiet server.
}

// faultMustDegrade reports whether a completed fault-plan request is
// required to carry a degradation. A tiny tick budget always cuts
// something. Of the plans, two can legitimately leave no trace:
// chain-corrupt has no rainbow table to corrupt on an NF without hash
// sites, and probe-perturb's jitter is exactly what discovery's
// thresholds are sized to absorb.
func faultMustDegrade(t *testing.T, req Request) bool {
	t.Helper()
	if req.Budget > 0 {
		return true
	}
	switch req.Fault {
	case "probe-perturb":
		return false
	case "chain-corrupt":
		inst, err := nf.New(req.NF)
		if err != nil {
			t.Fatal(err)
		}
		return len(inst.Hashes) > 0
	}
	return true
}
