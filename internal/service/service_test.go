package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"castan/internal/castan"
	"castan/internal/obs"
	"castan/internal/store"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func counterValue(m *obs.Metrics, name string) uint64 {
	return m.Counters[name]
}

// fastReq is a small request that completes quickly.
func fastReq(seed uint64) Request {
	return Request{NF: "nop", Packets: 2, MaxStates: 300, Seed: seed}
}

// TestAdmissionBackpressure pins the admission-control contract on a
// server whose fleet is deliberately not running, so queue states are
// fully observable: queue-full 429s carry a retry hint, a higher-priority
// arrival sheds the lowest-priority queued request, and per-tenant caps
// reject the over-subscribed tenant only.
func TestAdmissionBackpressure(t *testing.T) {
	s := newServer(Config{QueueDepth: 2, TenantCap: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	answered := make(chan Response, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			req := fastReq(uint64(i))
			req.Tenant = fmt.Sprintf("t%d", i)
			answered <- s.Do(ctx, req, nil)
		}(i)
	}
	waitFor(t, "two queued jobs", func() bool { q, _ := s.queueSnapshot(); return q == 2 })

	// Queue full, equal priority: the newcomer is rejected with a hint.
	resp := s.Do(ctx, fastReq(9), nil)
	if resp.Status != 429 || resp.RetryAfterMS <= 0 {
		t.Fatalf("queue-full response = %+v, want 429 with retry_after_ms", resp)
	}

	// A higher-priority arrival sheds one queued priority-0 job instead;
	// its waiter is answered with a 429 while the other stays queued.
	go func() {
		req := fastReq(10)
		req.Priority = 2
		req.Tenant = "hi"
		answered <- s.Do(ctx, req, nil)
	}()
	select {
	case r := <-answered:
		if r.Status != 429 || !strings.Contains(r.Err, "shed") {
			t.Fatalf("shed waiter got %+v, want shed 429", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no priority-0 waiter was shed")
	}
	if prios := s.sortedQueuePriorities(); len(prios) != 2 || prios[0] != 2 {
		t.Fatalf("queue priorities after shed = %v, want [2 0]", prios)
	}

	// Tenant cap: tenant "hi" has 1 queued; a cap-2 tenant filling both
	// slots is rejected on its third, other tenants are not.
	s.mu.Lock()
	s.cfg.QueueDepth = 10
	s.mu.Unlock()
	var capWG sync.WaitGroup
	for i := 0; i < 2; i++ {
		capWG.Add(1)
		go func(i int) {
			defer capWG.Done()
			req := fastReq(uint64(20 + i))
			req.Tenant = "capped"
			s.Do(ctx, req, nil)
		}(i)
	}
	waitFor(t, "capped tenant at cap", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.tenants["capped"] == 2
	})
	req := fastReq(30)
	req.Tenant = "capped"
	if resp := s.Do(ctx, req, nil); resp.Status != 429 || !strings.Contains(resp.Err, "tenant") {
		t.Fatalf("over-cap response = %+v, want tenant 429", resp)
	}
	req.Tenant = "other"
	go func() { s.Do(ctx, req, nil) }()
	waitFor(t, "other tenant admitted", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.tenants["other"] == 1
	})

	m := s.Metrics()
	if got := counterValue(m, CounterRejectedQueue); got != 1 {
		t.Errorf("%s = %d, want 1", CounterRejectedQueue, got)
	}
	if got := counterValue(m, CounterShed); got != 1 {
		t.Errorf("%s = %d, want 1", CounterShed, got)
	}
	if got := counterValue(m, CounterRejectedTenant); got != 1 {
		t.Errorf("%s = %d, want 1", CounterRejectedTenant, got)
	}
	// Releasing the context unblocks the waiters still queued (no fleet
	// is running in this test).
	cancel()
	capWG.Wait()
	<-answered
	<-answered
}

// TestWorkerCrashQuarantine drives the chaos panic through containment
// on a one-worker fleet: each crash fails only its own job (503), the
// breaker quarantines the shape at the threshold, and the goroutine that
// crashed three times then serves a healthy request.
func TestWorkerCrashQuarantine(t *testing.T) {
	s := New(Config{Workers: 1, AllowChaos: true, CrashQuarantine: 3})
	defer shutdown(t, s)

	boom := Request{NF: "nop", Packets: 2, MaxStates: 300, Chaos: ChaosPanicWorker}
	for i := 0; i < 3; i++ {
		resp := s.Do(context.Background(), boom, nil)
		if resp.Status != 503 || !strings.Contains(resp.Err, "crashed") {
			t.Fatalf("crash %d response = %+v, want 503 crashed", i, resp)
		}
	}
	if n, q := s.CrashCount(boom); n != 3 || !q {
		t.Fatalf("CrashCount = (%d, %v), want (3, true)", n, q)
	}
	// The breaker now answers without burning a worker.
	resp := s.Do(context.Background(), boom, nil)
	if resp.Status != 503 || !strings.Contains(resp.Err, "quarantined") {
		t.Fatalf("post-quarantine response = %+v, want 503 quarantined", resp)
	}
	// The fleet's only worker crashed three times and still serves.
	ok := s.Do(context.Background(), fastReq(1), nil)
	if ok.Status != 200 {
		t.Fatalf("healthy request after crashes = %+v, want 200", ok)
	}
	if err := ok.Report.Check("nop"); err != nil {
		t.Fatalf("healthy report invalid: %v", err)
	}
	m := s.Metrics()
	if got := counterValue(m, CounterCrashes); got != 3 {
		t.Errorf("%s = %d, want 3", CounterCrashes, got)
	}
	if got := counterValue(m, CounterQuarantineOpens); got != 1 {
		t.Errorf("%s = %d, want 1", CounterQuarantineOpens, got)
	}
}

// TestShutdownDrainsToValidDegradedReports is the drain contract: an
// in-flight analysis and a queued one both come back as HTTP 200 with
// schema-valid partial Reports degraded by "server draining", new
// admissions get 503, and Shutdown returns once the fleet is idle.
func TestShutdownDrainsToValidDegradedReports(t *testing.T) {
	s := New(Config{Workers: 1})
	big := Request{NF: "nat-chain", Packets: 8, MaxStates: 50000, Seed: 3}
	queued := Request{NF: "lpm-trie", Packets: 4, MaxStates: 50000, Seed: 4}

	var wg sync.WaitGroup
	var bigResp, queuedResp Response
	wg.Add(2)
	go func() { defer wg.Done(); bigResp = s.Do(context.Background(), big, nil) }()
	waitFor(t, "big job in flight", func() bool { _, inflight := s.queueSnapshot(); return inflight == 1 })
	go func() { defer wg.Done(); queuedResp = s.Do(context.Background(), queued, nil) }()
	waitFor(t, "second job queued", func() bool { q, _ := s.queueSnapshot(); return q == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()

	if !s.Draining() {
		t.Error("Draining() = false after Shutdown")
	}
	for name, resp := range map[string]Response{"in-flight": bigResp, "queued": queuedResp} {
		if resp.Status != 200 {
			t.Fatalf("%s response = %+v, want degraded 200", name, resp)
		}
		if err := resp.Report.Check(""); err != nil {
			t.Errorf("%s report invalid: %v", name, err)
		}
		found := false
		for _, d := range resp.Report.Degradations {
			if strings.Contains(d.Reason, "draining") {
				found = true
			}
		}
		if !found || !resp.Degraded {
			t.Errorf("%s response not degraded by drain: %+v", name, resp.Report.Degradations)
		}
	}
	if resp := s.Do(context.Background(), fastReq(1), nil); resp.Status != 503 {
		t.Errorf("post-drain admission = %+v, want 503", resp)
	}
	// Idempotent.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Errorf("second Shutdown: %v", err)
	}
}

// TestIdempotentKeySingleCompute: 8 concurrent requests sharing one
// idempotency key produce exactly one computation — concurrent
// duplicates ride the in-process single-flight, later ones the
// store-backed report cache — and all answers describe the identical
// outcome.
func TestIdempotentKeySingleCompute(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 2, Store: st})
	defer shutdown(t, s)

	req := Request{NF: "lpm-trie", Packets: 3, MaxStates: 800, Seed: 5, Key: "job-1"}
	const clients = 8
	resps := make([]Response, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i] = s.Do(context.Background(), req, nil)
		}(i)
	}
	wg.Wait()
	for i, r := range resps {
		if r.Status != 200 {
			t.Fatalf("client %d = %+v, want 200", i, r)
		}
		if err := r.Report.Check("lpm-trie"); err != nil {
			t.Fatalf("client %d report invalid: %v", i, err)
		}
		if !r.Report.SameOutcome(resps[0].Report) {
			t.Fatalf("client %d outcome differs from client 0", i)
		}
	}
	m := s.Metrics()
	if got := counterValue(m, CounterCompleted); got != 1 {
		t.Errorf("%s = %d, want exactly 1 compute for %d clients", CounterCompleted, got, clients)
	}
	if hits := counterValue(m, CounterSingleflight) + counterValue(m, CounterCacheHits); hits != clients-1 {
		t.Errorf("singleflight+cache hits = %d, want %d", hits, clients-1)
	}
	// A later retry is a pure store hit.
	r := s.Do(context.Background(), req, nil)
	if r.Status != 200 || !r.CacheHit {
		t.Fatalf("retry = %+v, want cached 200", r)
	}
	if got := counterValue(s.Metrics(), CounterCompleted); got != 1 {
		t.Errorf("retry recomputed: %s = %d", CounterCompleted, got)
	}
}

// TestSingleflightDoesNotAliasAcrossParams: an idempotency key names a
// request only together with what is being asked. Two concurrent
// requests that reuse one key for different NFs (castand load draws its
// colliding keys across the whole NF mix) are two computations, and each
// is answered with its own NF's report — the single-flight map is keyed
// like the report cache, not by the bare key.
func TestSingleflightDoesNotAliasAcrossParams(t *testing.T) {
	// No fleet yet: both requests must be sitting in the queue at once,
	// which is exactly what a flight shared on the bare key prevents (the
	// second would wait on the first's flight and never be queued).
	s := newServer(Config{Workers: 2})
	reqs := []Request{
		{NF: "lpm-trie", Packets: 3, MaxStates: 800, Seed: 5, Key: "shared"},
		{NF: "nop", Packets: 2, MaxStates: 300, Seed: 5, Key: "shared"},
	}
	resps := make([]Response, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resps[i] = s.Do(context.Background(), req, nil)
		}()
		waitFor(t, fmt.Sprintf("%d queued jobs", i+1), func() bool { q, _ := s.queueSnapshot(); return q == i+1 })
	}
	s.start()
	defer shutdown(t, s)
	wg.Wait()
	for i, r := range resps {
		if r.Status != 200 || r.CacheHit {
			t.Fatalf("%s = %+v, want a computed 200", reqs[i].NF, r)
		}
		if r.Report.NF != reqs[i].NF {
			t.Fatalf("request for %s was answered with %s's report", reqs[i].NF, r.Report.NF)
		}
		if err := r.Report.Check(reqs[i].NF); err != nil {
			t.Fatalf("%s report invalid: %v", reqs[i].NF, err)
		}
	}
	m := s.Metrics()
	if got := counterValue(m, CounterSingleflight); got != 0 {
		t.Errorf("%s = %d, want 0: the two requests are not duplicates", CounterSingleflight, got)
	}
	if got := counterValue(m, CounterCompleted); got != 2 {
		t.Errorf("%s = %d, want 2 computes", CounterCompleted, got)
	}
}

// TestTenantBudgetExhaustion: with a cumulative per-tenant allotment, a
// tenant that burned it is rejected 429 while others proceed.
func TestTenantBudgetExhaustion(t *testing.T) {
	s := New(Config{Workers: 1, TenantBudget: 1})
	defer shutdown(t, s)
	req := fastReq(1)
	req.Tenant = "greedy"
	if resp := s.Do(context.Background(), req, nil); resp.Status != 200 {
		t.Fatalf("first request = %+v, want 200", resp)
	}
	if resp := s.Do(context.Background(), req, nil); resp.Status != 429 || !strings.Contains(resp.Err, "budget") {
		t.Fatalf("over-budget request = %+v, want 429 budget", resp)
	}
	other := fastReq(2)
	other.Tenant = "frugal"
	if resp := s.Do(context.Background(), other, nil); resp.Status != 200 {
		t.Fatalf("other tenant = %+v, want 200", resp)
	}
}

// TestWorkerCountInvariantReports pins the determinism criterion: the
// same request analyzed by fleets with AnalysisWorkers 1, 4, and 8 under
// a FakeClock yields byte-identical reports (wall-clock seconds zeroed;
// everything else, telemetry included, must match).
func TestWorkerCountInvariantReports(t *testing.T) {
	requests := map[string]Request{
		"clean":    {NF: "lpm-trie", Packets: 3, MaxStates: 900, Seed: 11},
		"degraded": {NF: "nat-chain", Packets: 3, MaxStates: 900, Seed: 11, Budget: 400},
	}
	for name, req := range requests {
		var golden []byte
		for _, w := range []int{1, 4, 8} {
			s := New(Config{Workers: 1, AnalysisWorkers: w, Clock: obs.NewFakeClock(1000)})
			resp := s.Do(context.Background(), req, nil)
			shutdown(t, s)
			if resp.Status != 200 {
				t.Fatalf("%s W=%d: %+v", name, w, resp)
			}
			rep := *resp.Report
			rep.AnalysisSeconds = 0
			data, err := json.Marshal(&rep)
			if err != nil {
				t.Fatal(err)
			}
			if golden == nil {
				golden = data
				if name == "degraded" && len(resp.Report.Degradations) == 0 {
					t.Fatalf("%s: budget %d did not degrade", name, req.Budget)
				}
				continue
			}
			if string(data) != string(golden) {
				t.Errorf("%s W=%d report differs from W=1:\n%s\nvs\n%s", name, w, data, golden)
			}
		}
	}
}

// TestDeadlineDegradesUnderFakeClock: a request deadline measured on the
// injected clock cuts the analysis into a valid degraded 200 — the
// service-level version of budget_test's deadline pin.
func TestDeadlineDegradesUnderFakeClock(t *testing.T) {
	s := New(Config{Workers: 1, Clock: obs.NewFakeClock(uint64(time.Millisecond))})
	defer shutdown(t, s)
	req := Request{NF: "lpm-trie", Packets: 3, MaxStates: 20000, Seed: 2, DeadlineMS: 1}
	resp := s.Do(context.Background(), req, nil)
	if resp.Status != 200 || !resp.Degraded {
		t.Fatalf("deadline response = %+v, want degraded 200", resp)
	}
	if err := resp.Report.Check("lpm-trie"); err != nil {
		t.Fatalf("deadline report invalid: %v", err)
	}
}

// TestHTTPEndpoints exercises the HTTP surface end to end against a live
// handler: lifecycle probes, the catalog, a GET analysis (the
// reportcheck -url shape), error mapping, and the SSE stream's
// progress-then-report contract.
func TestHTTPEndpoints(t *testing.T) {
	s := New(Config{Workers: 2})
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, probe := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + probe)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("%s = %d, want 200", probe, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/analyze?nf=nop&packets=2&states=300&seed=1")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := readReportHTTP(resp)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check("nop"); err != nil {
		t.Fatalf("GET report invalid: %v", err)
	}
	if got := resp.Header.Get("X-Castan-Degraded"); got != "false" {
		t.Errorf("X-Castan-Degraded = %q, want false", got)
	}

	// Error mapping: unknown NF is a JSON 400, not a panic or a 500.
	resp, err = http.Get(ts.URL + "/v1/analyze?nf=no-such-nf")
	if err != nil {
		t.Fatal(err)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Errorf("400 body not a JSON error: %v %+v", err, e)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("unknown nf = %d, want 400", resp.StatusCode)
	}

	// Chaos fields are rejected while chaos is disabled.
	resp, err = http.Get(ts.URL + "/v1/analyze?nf=nop&chaos=panic-worker")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("chaos without -chaos = %d, want 400", resp.StatusCode)
	}

	// SSE: progress events then one terminal report event.
	resp, err = http.Get(ts.URL + "/v1/analyze?nf=nop&packets=2&states=300&seed=2&stream=sse")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE Content-Type = %q", ct)
	}
	var sawProgress, sawReport bool
	var last string
	buf := make([]byte, 1<<20)
	n, _ := io.ReadFull(resp.Body, buf)
	for _, line := range strings.Split(string(buf[:n]), "\n") {
		if strings.HasPrefix(line, "event: progress") {
			sawProgress = true
		}
		if strings.HasPrefix(line, "event: report") {
			sawReport = true
		}
		if strings.HasPrefix(line, "data: ") {
			last = strings.TrimPrefix(line, "data: ")
		}
	}
	if !sawProgress || !sawReport {
		t.Fatalf("SSE stream missing events: progress=%v report=%v", sawProgress, sawReport)
	}
	var final struct {
		Status int            `json:"status"`
		Report *castan.Report `json:"report"`
	}
	if err := json.Unmarshal([]byte(last), &final); err != nil {
		t.Fatalf("terminal SSE event: %v", err)
	}
	if final.Status != 200 || final.Report.Check("nop") != nil {
		t.Fatalf("terminal SSE event invalid: status %d", final.Status)
	}
}

func readReportHTTP(resp *http.Response) (*castan.Report, error) {
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	return castan.ReadReport(resp.Body)
}

func shutdown(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// TestServerOwnsItsRainbowTables pins where in-process table reuse lives:
// one Server builds and persists nat-chain's tables on the first request
// and a second request (another seed, so no report-level reuse) neither
// rebuilds nor rewrites them; a second Server in the same process starts
// with none of them and persists its own.
func TestServerOwnsItsRainbowTables(t *testing.T) {
	kindFiles := func(dir, kind string) int {
		files, err := filepath.Glob(filepath.Join(dir, kind+"-*.json"))
		if err != nil {
			t.Fatal(err)
		}
		return len(files)
	}
	serve := func(s *Server, seed uint64) *castan.Report {
		resp := s.Do(context.Background(), Request{NF: "nat-chain", Packets: 4, MaxStates: 1500, Seed: seed}, nil)
		if resp.Status != 200 || resp.Degraded {
			t.Fatalf("seed %d: %+v, want a clean 200", seed, resp)
		}
		return resp.Report
	}
	fresh := func() (*Server, string) {
		dir := t.TempDir()
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return New(Config{Workers: 1, Store: st}), dir
	}

	s1, dir1 := fresh()
	defer shutdown(t, s1)
	serve(s1, 1)
	tables := kindFiles(dir1, store.KindRainbow)
	if tables == 0 {
		t.Fatal("first request persisted no rainbow table")
	}
	models := kindFiles(dir1, store.KindModel)
	second := serve(s1, 2)
	if got := kindFiles(dir1, store.KindRainbow); got != tables {
		t.Errorf("rainbow entries: %d after the second request, %d after the first", got, tables)
	}
	// Whatever the second request wrote was its own seed's cache model.
	wroteModels := uint64(kindFiles(dir1, store.KindModel) - models)
	if got := second.Telemetry.Counters["castan.store.writes"]; got != wroteModels {
		t.Errorf("second request recorded %d store writes, %d of them models: it rewrote tables", got, wroteModels)
	}

	s2, dir2 := fresh()
	defer shutdown(t, s2)
	serve(s2, 1)
	if got := kindFiles(dir2, store.KindRainbow); got != tables {
		t.Errorf("second server persisted %d rainbow tables, want %d: it saw the first server's", got, tables)
	}
}

// TestBudgetCutDoesNotPoisonModelReuse: a budget-cut request that is
// first to reach a cache-model key persists nothing, and must not stop
// later full requests on the same server (one store handle, as castand
// holds) from reusing the model the first of them writes.
func TestBudgetCutDoesNotPoisonModelReuse(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, Store: st})
	defer shutdown(t, s)
	req := Request{NF: "lpm-dl1", Seed: 3, Budget: 200}
	if resp := s.Do(context.Background(), req, nil); resp.Status != 200 || !resp.Degraded {
		t.Fatalf("budget-cut request = %+v, want a degraded 200", resp)
	}
	req.Budget = 0
	for i := 0; i < 3; i++ {
		resp := s.Do(context.Background(), req, nil)
		if resp.Status != 200 || resp.Degraded {
			t.Fatalf("full request %d = %+v, want a clean 200", i, resp)
		}
		if i == 0 {
			continue
		}
		c := resp.Report.Telemetry.Counters
		if c["castan.store.hits"] != 1 || c["memsim.probe_line_reads"] != 0 {
			t.Errorf("full request %d: store hits %d, probe line reads %d; want 1 and 0",
				i, c["castan.store.hits"], c["memsim.probe_line_reads"])
		}
	}
}

// TestMetricsMatchInstruments is the service half of the telemetry
// catalog's drift check: a server's recorder carries exactly the
// instruments the Instruments table declares, with the declared kinds,
// from construction on — a row without an instrument, or an instrument
// without a row, fails.
func TestMetricsMatchInstruments(t *testing.T) {
	m := newServer(Config{}).Metrics()
	declared := map[string]obs.InstrumentKind{}
	for _, in := range Instruments {
		if _, dup := declared[in.Name]; dup {
			t.Errorf("%s is declared twice", in.Name)
		}
		declared[in.Name] = in.Kind
	}
	live := map[string]obs.InstrumentKind{}
	for n := range m.Counters {
		live[n] = obs.CounterKind
	}
	for n := range m.Gauges {
		live[n] = obs.GaugeKind
	}
	for n := range m.Histograms {
		live[n] = obs.HistogramKind
	}
	for n, k := range declared {
		if live[n] != k {
			t.Errorf("Instruments declares %s %s; a new server has %q", k, n, live[n])
		}
	}
	for n, k := range live {
		if _, ok := declared[n]; !ok {
			t.Errorf("a new server has %s %s, which Instruments does not declare", k, n)
		}
	}
}
