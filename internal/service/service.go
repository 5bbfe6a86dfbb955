// Package service is castan-as-a-service (ROADMAP item 2): a long-running
// analysis server that accepts concurrent requests, shards them across a
// fixed worker fleet, and is engineered to stay up and useful under
// overload, faults, and worker crashes.
//
// The robustness contract, end to end:
//
//   - Admission control. Requests enter a bounded priority queue. When it
//     is full the server sheds the lowest-priority queued request (or
//     rejects the newcomer if nothing queued ranks lower) with 429 +
//     Retry-After. Per-tenant caps bound how much of the queue one tenant
//     can own, and per-tenant budget.Meters bound the cumulative ticks a
//     tenant may burn — both reject with 429, which clients retry with
//     backoff (castand load's seeded exponential schedule).
//   - Degradation, never 500. Every admitted analysis carries a
//     budget.Meter (ticks and/or a deadline on the injectable obs.Clock).
//     Exhaustion rides the pipeline's existing degraded-exit semantics
//     (PR 5): the response is HTTP 200 with a schema-valid partial Report
//     whose Degradations say what was cut. A request that cannot be
//     served (quarantined shape, crashed worker, draining) gets an
//     explicit 4xx/5xx JSON error — the analysis pipeline itself never
//     surfaces a 500.
//   - Crash containment. A panicking job (chaos injection or a real bug)
//     is contained by runJob's recover: the job fails with 503 and the
//     same worker goroutine goes on to its next job. Repeated crashes of
//     the same request shape (NF + fault + chaos) trip a circuit breaker
//     that quarantines the shape with 503s instead of burning workers.
//   - Graceful drain. Shutdown stops admissions (readyz goes 503), pulls
//     budget.Meter.Cancel on every queued and in-flight analysis so each
//     degrades at its next deterministic checkpoint into a valid partial
//     Report, waits for the fleet, and leaves every response answered.
//   - Idempotency. Requests carrying a Key are single-flighted in
//     process (concurrent duplicates wait for the leader) and, when a
//     store is configured, persisted as KindReport artifacts so client
//     retries never recompute a clean result.
//
// Determinism (DESIGN.md decision 6/8/13) is preserved per request: a
// job's Report is a function of its request fields alone — the fleet
// size, queue order, and AnalysisWorkers change scheduling and effort
// accounting, never analysis output — so single-request reports are
// byte-identical at every worker count under a FakeClock.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"castan/internal/budget"
	"castan/internal/castan"
	"castan/internal/faultinject"
	"castan/internal/memsim"
	"castan/internal/nf"
	"castan/internal/obs"
	"castan/internal/store"
)

// Service counter and gauge names.
const (
	CounterRequests         = "service.requests"
	CounterAccepted         = "service.accepted"
	CounterRejectedInvalid  = "service.rejected.invalid"
	CounterRejectedQueue    = "service.rejected.queue_full"
	CounterRejectedTenant   = "service.rejected.tenant_cap"
	CounterRejectedBudget   = "service.rejected.tenant_budget"
	CounterRejectedDraining = "service.rejected.draining"
	CounterRejectedQuarant  = "service.rejected.quarantined"
	CounterShed             = "service.shed"
	CounterCompleted        = "service.completed"
	CounterDegraded         = "service.completed_degraded"
	CounterCrashes          = "service.worker_crashes"
	CounterQuarantineOpens  = "service.quarantine_opens"
	CounterCacheHits        = "service.report_cache_hits"
	CounterSingleflight     = "service.singleflight_hits"
	GaugeQueueDepth         = "service.queue_depth"
	GaugeInflight           = "service.inflight"
)

// Instruments is the daemon's half of the telemetry catalog (the
// pipeline's is obs.Catalog): a row per instrument a Server keeps on its
// own recorder, all of them created at construction so /metrics lists
// them from the first scrape. They count scheduling, which depends on
// arrival order and timing, so none is a perf-gate column.
var Instruments = []obs.Instrument{
	counter(CounterRequests, "requests", "calls to Server.Do, whatever their outcome"),
	counter(CounterAccepted, "requests", "requests that passed admission and were queued"),
	counter(CounterRejectedInvalid, "requests", "requests refused with 400: unknown NF, out-of-range size, or a chaos/fault order the server does not allow"),
	counter(CounterRejectedQueue, "requests", "requests refused with 429 because the queue was full and held nothing of lower priority to shed"),
	counter(CounterRejectedTenant, "requests", "requests refused with 429 because their tenant was at its concurrency cap"),
	counter(CounterRejectedBudget, "requests", "requests refused with 429 because their tenant's tick budget was spent"),
	counter(CounterRejectedDraining, "requests", "requests refused with 503 after Shutdown began"),
	counter(CounterRejectedQuarant, "requests", "requests refused with 503 because their shape's circuit breaker is open"),
	counter(CounterShed, "requests", "queued requests evicted (answered 429) to admit a higher-priority arrival under a full queue"),
	counter(CounterCompleted, "requests", "analyses that ran to a report (HTTP 200), degraded ones included"),
	counter(CounterDegraded, "requests", "completed analyses whose report lists at least one stage degradation"),
	counter(CounterCrashes, "crashes", "worker panics contained while running a job"),
	counter(CounterQuarantineOpens, "shapes", "request shapes whose circuit breaker opened after repeated crashes"),
	counter(CounterCacheHits, "requests", "idempotent retries answered from a clean report persisted in the store, before admission"),
	counter(CounterSingleflight, "requests", "requests that joined an identical in-flight request instead of running their own analysis"),
	{Name: GaugeQueueDepth, Kind: obs.GaugeKind, Unit: "requests", Owner: "internal/service", Desc: "current/peak number of admitted requests waiting for a worker"},
	{Name: GaugeInflight, Kind: obs.GaugeKind, Unit: "requests", Owner: "internal/service", Desc: "current/peak number of requests a worker is running"},
}

func counter(name, unit, desc string) obs.Instrument {
	return obs.Instrument{Name: name, Kind: obs.CounterKind, Unit: unit, Owner: "internal/service", Desc: desc}
}

// ChaosPanicWorker is the Request.Chaos value that panics the worker
// goroutine running the job (before any analysis), exercising crash
// containment and the quarantine breaker. Honored only when
// Config.AllowChaos is set.
const ChaosPanicWorker = "panic-worker"

// StatusClientGone is the internal status for a waiter whose context
// ended before the job finished (nginx's 499). It is never written to a
// client — the client is gone — but tests observe it.
const StatusClientGone = 499

const (
	// maxPackets / maxStatesLimit reject oversized requests.
	maxPackets     = 64
	maxStatesLimit = 50000
	// retryAfter is the backoff hint attached to 429 responses.
	retryAfter = time.Second
)

// Config tunes a Server. The zero value is usable.
type Config struct {
	// Workers is the analysis worker fleet size (default 4).
	Workers int
	// AnalysisWorkers is castan.Config.Workers for each job — the
	// pipeline's internal fan-out (default 1). Output is identical at
	// every value; only effort scheduling changes.
	AnalysisWorkers int
	// QueueDepth bounds the admission queue (default 64).
	QueueDepth int
	// TenantCap bounds one tenant's queued+running requests (default 8).
	TenantCap int
	// TenantBudget, when >0, is the cumulative tick allotment per tenant,
	// tracked on a per-tenant budget.Meter; an exhausted tenant is
	// rejected with 429 until the server restarts.
	TenantBudget uint64
	// DefaultBudget is the per-request tick budget when the request
	// carries none (0 = unlimited ticks; the meter still counts).
	DefaultBudget uint64
	// DefaultDeadline bounds each request (queue wait included) on Clock
	// when the request carries none (0 = none).
	DefaultDeadline time.Duration
	// DefaultPackets / DefaultMaxStates fill requests that omit them
	// (defaults 4 / 1500 — service-scale, not the paper-scale 30/12000,
	// so an unconfigured request stays interactive).
	DefaultPackets   int
	DefaultMaxStates int
	// CrashQuarantine is how many worker crashes one request shape
	// (NF+fault+chaos) may cause before the circuit breaker quarantines
	// it (default 3).
	CrashQuarantine int
	// Clock drives request deadlines and the service recorder (nil =
	// wall clock; tests inject obs.NewFakeClock).
	Clock obs.Clock
	// Obs receives service-level telemetry (nil = a private recorder;
	// read it via Metrics).
	Obs *obs.Recorder
	// Store, when non-nil, backs both the analysis pipeline's artifact
	// cache and the idempotent report cache.
	Store *store.Store
	// AllowChaos honors the Fault/Chaos request fields (tests and chaos
	// runs only; off in production).
	AllowChaos bool
}

func (c Config) fill() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.AnalysisWorkers <= 0 {
		c.AnalysisWorkers = 1
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.TenantCap <= 0 {
		c.TenantCap = 8
	}
	if c.DefaultPackets <= 0 {
		c.DefaultPackets = 4
	}
	if c.DefaultMaxStates <= 0 {
		c.DefaultMaxStates = 1500
	}
	if c.CrashQuarantine <= 0 {
		c.CrashQuarantine = 3
	}
	if c.Clock == nil {
		c.Clock = obs.NewWallClock()
	}
	if c.Obs == nil {
		c.Obs = obs.New(c.Clock)
	}
	return c
}

// Request is one analysis order. The analysis outcome is a function of
// the starred fields only; the rest shape scheduling and robustness.
type Request struct {
	NF        string `json:"nf"`                   // *catalog name (required)
	Packets   int    `json:"packets,omitempty"`    // *workload length
	MaxStates int    `json:"max_states,omitempty"` // *exploration budget
	Seed      uint64 `json:"seed,omitempty"`       // *discovery seed
	// Budget bounds the run in deterministic ticks (0 = server default).
	Budget uint64 `json:"budget_ticks,omitempty"` // *
	// DeadlineMS bounds the request (queue wait included) in
	// milliseconds on the server clock (0 = server default).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Priority orders admission: higher runs first, and under a full
	// queue strictly lower-priority queued work is shed first. FIFO
	// within a priority.
	Priority int `json:"priority,omitempty"`
	// Tenant names the accounting bucket for caps and tenant budgets.
	Tenant string `json:"tenant,omitempty"`
	// Key, when set, makes the request idempotent: concurrent
	// duplicates single-flight behind one computation, and clean
	// results are persisted so retries never recompute.
	Key string `json:"key,omitempty"`
	// Fault names a faultinject.MatrixPlans entry to arm inside the
	// analysis (AllowChaos only). The run degrades; it does not crash.
	Fault string `json:"fault,omitempty"`
	// Chaos injects service-level failures (AllowChaos only); see
	// ChaosPanicWorker.
	Chaos string `json:"chaos,omitempty"`
}

// shape is the circuit-breaker bucket: requests that crash workers the
// same way land in the same bucket.
func (r *Request) shape() string { return r.NF + "|" + r.Fault + "|" + r.Chaos }

// Response is the service's answer to one Request. Status follows HTTP
// semantics (200 carries a Report; 4xx/5xx carry Err).
type Response struct {
	Status       int            `json:"status"`
	Report       *castan.Report `json:"report,omitempty"`
	Degraded     bool           `json:"degraded,omitempty"`
	CacheHit     bool           `json:"cache_hit,omitempty"`
	Err          string         `json:"error,omitempty"`
	RetryAfterMS int64          `json:"retry_after_ms,omitempty"`
}

type flight struct {
	done chan struct{}
	resp Response
}

type job struct {
	id    uint64
	req   Request
	prio  int
	ctx   context.Context
	meter *budget.Meter
	sub   *obs.ChanSub
	fl    *flight
	key   string // report-cache content key ("" = not cacheable)

	done     chan struct{}
	resp     Response
	finished bool // guarded by Server.mu
}

// Server is the analysis service. Create with New, serve via Handler
// (http.go) or Do, stop with Shutdown.
type Server struct {
	cfg   Config
	rec   *obs.Recorder
	clock obs.Clock
	// tables is this server's in-process rainbow-table memo: the daemon
	// is the one caller that analyzes the same NF many times per process,
	// so every job shares it and each table is built or loaded once.
	tables castan.TableCache

	mu          sync.Mutex
	cond        *sync.Cond
	queue       []*job
	inflight    map[*job]struct{}
	tenants     map[string]int
	tenantMeter map[string]*budget.Meter
	crashes     map[string]int
	quarantined map[string]bool
	flights     map[string]*flight
	nextID      uint64
	draining    bool

	workerWG sync.WaitGroup

	cRequests, cAccepted, cInvalid, cQueueFull, cTenantCap, cTenantBudget *obs.Counter
	cDraining, cQuarantined, cShed, cCompleted, cDegraded                 *obs.Counter
	cCrashes, cQuarantineOpens, cCacheHits, cSingleflight                 *obs.Counter
	gQueue, gInflight                                                     *obs.Gauge
}

// New builds a Server and starts its worker fleet.
func New(cfg Config) *Server {
	s := newServer(cfg)
	s.start()
	return s
}

// newServer builds the server without starting workers — admission tests
// use it to observe queue states that a running fleet would drain.
func newServer(cfg Config) *Server {
	cfg = cfg.fill()
	s := &Server{
		cfg:         cfg,
		rec:         cfg.Obs,
		clock:       cfg.Clock,
		inflight:    map[*job]struct{}{},
		tenants:     map[string]int{},
		tenantMeter: map[string]*budget.Meter{},
		crashes:     map[string]int{},
		quarantined: map[string]bool{},
		flights:     map[string]*flight{},
	}
	s.cond = sync.NewCond(&s.mu)

	s.cRequests = s.rec.Counter(CounterRequests)
	s.cAccepted = s.rec.Counter(CounterAccepted)
	s.cInvalid = s.rec.Counter(CounterRejectedInvalid)
	s.cQueueFull = s.rec.Counter(CounterRejectedQueue)
	s.cTenantCap = s.rec.Counter(CounterRejectedTenant)
	s.cTenantBudget = s.rec.Counter(CounterRejectedBudget)
	s.cDraining = s.rec.Counter(CounterRejectedDraining)
	s.cQuarantined = s.rec.Counter(CounterRejectedQuarant)
	s.cShed = s.rec.Counter(CounterShed)
	s.cCompleted = s.rec.Counter(CounterCompleted)
	s.cDegraded = s.rec.Counter(CounterDegraded)
	s.cCrashes = s.rec.Counter(CounterCrashes)
	s.cQuarantineOpens = s.rec.Counter(CounterQuarantineOpens)
	s.cCacheHits = s.rec.Counter(CounterCacheHits)
	s.cSingleflight = s.rec.Counter(CounterSingleflight)
	s.gQueue = s.rec.Gauge(GaugeQueueDepth)
	s.gInflight = s.rec.Gauge(GaugeInflight)
	return s
}

// Metrics snapshots the service recorder.
func (s *Server) Metrics() *obs.Metrics { return s.rec.Snapshot() }

// Draining reports whether Shutdown has begun (readyz turns 503).
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// validate normalizes req in place and rejects malformed orders.
func (s *Server) validate(req *Request) error {
	if _, ok := nf.Catalog[req.NF]; !ok {
		return fmt.Errorf("unknown nf %q", req.NF)
	}
	if req.Packets == 0 {
		req.Packets = s.cfg.DefaultPackets
	}
	if req.Packets < 0 || req.Packets > maxPackets {
		return fmt.Errorf("packets %d out of range [1,%d]", req.Packets, maxPackets)
	}
	if req.MaxStates == 0 {
		req.MaxStates = s.cfg.DefaultMaxStates
	}
	if req.MaxStates < 0 || req.MaxStates > maxStatesLimit {
		return fmt.Errorf("max_states %d out of range [1,%d]", req.MaxStates, maxStatesLimit)
	}
	if req.DeadlineMS < 0 {
		return fmt.Errorf("deadline_ms must be >= 0")
	}
	if req.Fault != "" || req.Chaos != "" {
		if !s.cfg.AllowChaos {
			return fmt.Errorf("fault/chaos injection is disabled on this server")
		}
		if req.Fault != "" && s.plan(req.Fault) == nil {
			return fmt.Errorf("unknown fault plan %q", req.Fault)
		}
		if req.Chaos != "" && req.Chaos != ChaosPanicWorker {
			return fmt.Errorf("unknown chaos mode %q", req.Chaos)
		}
	}
	return nil
}

// plan resolves a MatrixPlans entry by name.
func (s *Server) plan(name string) *faultinject.Plan {
	if name == "" {
		return nil
	}
	for _, p := range faultinject.MatrixPlans() {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// cacheKey is the report cache's content address: the idempotency key
// plus every request field the analysis outcome depends on, so a reused
// Key with different parameters can never alias.
func cacheKey(req Request) string {
	return store.Key("svc-report/v1", req.Key, req.NF,
		fmt.Sprint(req.Packets), fmt.Sprint(req.MaxStates),
		fmt.Sprint(req.Seed), fmt.Sprint(req.Budget))
}

// Do submits one request and blocks until it is answered (or ctx ends
// while it is queued/running; the job still completes server-side). sub,
// when non-nil, is subscribed to the job's per-request recorder before
// the analysis starts — the SSE seam.
func (s *Server) Do(ctx context.Context, req Request, sub *obs.ChanSub) Response {
	s.cRequests.Inc()
	if err := s.validate(&req); err != nil {
		s.cInvalid.Inc()
		return Response{Status: 400, Err: err.Error()}
	}
	chaotic := req.Fault != "" || req.Chaos != ""

	var key string
	if req.Key != "" && !chaotic {
		key = cacheKey(req)
		// Idempotent fast path: a persisted clean report answers the
		// retry without touching admission at all.
		if s.cfg.Store != nil {
			if data, ok := s.cfg.Store.Get(store.KindReport, key); ok {
				var rep castan.Report
				if json.Unmarshal(data, &rep) == nil && rep.Check(req.NF) == nil {
					s.cCacheHits.Inc()
					return Response{Status: 200, Report: &rep, CacheHit: true}
				}
			}
		}
	}

	s.mu.Lock()
	// In-process single-flight: concurrent duplicates wait for the
	// leader instead of recomputing. Flights are keyed like the report
	// cache, by everything the outcome depends on: a client that reuses
	// an idempotency key for a different NF or size is not a duplicate
	// and must not be handed the other request's report.
	var fl *flight
	if key != "" {
		if existing := s.flights[key]; existing != nil {
			s.mu.Unlock()
			s.cSingleflight.Inc()
			select {
			case <-existing.done:
				// Only a computed report is a cache hit; a rejection is
				// passed on as it is.
				r := existing.resp
				r.CacheHit = r.Status == 200
				return r
			case <-ctx.Done():
				return Response{Status: StatusClientGone, Err: ctx.Err().Error()}
			}
		}
		fl = &flight{done: make(chan struct{})}
		s.flights[key] = fl
	}

	resp, j := s.admitLocked(ctx, req, sub, fl, key)
	if j == nil {
		if fl != nil {
			s.completeFlightLocked(key, fl, resp)
		}
		s.mu.Unlock()
		return resp
	}
	s.mu.Unlock()

	select {
	case <-j.done:
		return j.resp
	case <-ctx.Done():
		// The waiter is gone; cancel the analysis so the worker degrades
		// out at its next checkpoint rather than finishing for nobody. A
		// keyed job runs on: its followers wait for the clean result, and
		// the report cache keeps it for the leader's retry.
		if j.fl == nil {
			j.meter.Cancel("client gone")
		}
		return Response{Status: StatusClientGone, Err: ctx.Err().Error()}
	}
}

// admitLocked runs admission control. It returns either a final rejection
// response (job == nil) or the enqueued job to wait on. Caller holds mu.
func (s *Server) admitLocked(ctx context.Context, req Request, sub *obs.ChanSub, fl *flight, key string) (Response, *job) {
	if s.draining {
		s.cDraining.Inc()
		return Response{Status: 503, Err: "server draining"}, nil
	}
	if s.quarantined[req.shape()] {
		s.cQuarantined.Inc()
		return Response{Status: 503, Err: fmt.Sprintf("request shape %q quarantined after repeated crashes", req.shape())}, nil
	}
	if s.tenants[req.Tenant] >= s.cfg.TenantCap {
		s.cTenantCap.Inc()
		return s.reject429(fmt.Sprintf("tenant %q at concurrency cap %d", req.Tenant, s.cfg.TenantCap)), nil
	}
	if s.cfg.TenantBudget > 0 {
		tm := s.tenantMeter[req.Tenant]
		if tm == nil {
			tm = budget.New(s.cfg.TenantBudget)
			s.tenantMeter[req.Tenant] = tm
		}
		if reason, dead := tm.Exhausted(); dead {
			s.cTenantBudget.Inc()
			return s.reject429(fmt.Sprintf("tenant %q budget exhausted: %s", req.Tenant, reason)), nil
		}
	}
	if len(s.queue) >= s.cfg.QueueDepth {
		// Load-shed: evict the lowest-priority queued job iff it ranks
		// strictly below the newcomer (LIFO within that priority, so the
		// freshest low-priority work goes first).
		victim := -1
		for i, q := range s.queue {
			if q.prio >= req.Priority {
				continue
			}
			if victim == -1 || q.prio < s.queue[victim].prio || (q.prio == s.queue[victim].prio && q.id > s.queue[victim].id) {
				victim = i
			}
		}
		if victim == -1 {
			s.cQueueFull.Inc()
			return s.reject429(fmt.Sprintf("queue full (%d)", s.cfg.QueueDepth)), nil
		}
		v := s.queue[victim]
		s.queue = append(s.queue[:victim], s.queue[victim+1:]...)
		s.cShed.Inc()
		shed := s.reject429(fmt.Sprintf("shed by priority-%d arrival under full queue", req.Priority))
		s.finishLocked(v, shed)
	}

	ticks := req.Budget
	if ticks == 0 {
		ticks = s.cfg.DefaultBudget
	}
	meter := budget.New(ticks)
	d := time.Duration(req.DeadlineMS) * time.Millisecond
	if d <= 0 {
		d = s.cfg.DefaultDeadline
	}
	if d > 0 {
		meter.SetDeadline(s.clock, d)
	}

	s.nextID++
	j := &job{
		id: s.nextID, req: req, prio: req.Priority, ctx: ctx,
		meter: meter, sub: sub, fl: fl, key: key,
		done: make(chan struct{}),
	}
	s.queue = append(s.queue, j)
	s.tenants[req.Tenant]++
	s.gQueue.Set(uint64(len(s.queue)))
	s.cAccepted.Inc()
	s.cond.Signal()
	return Response{}, j
}

func (s *Server) reject429(msg string) Response {
	return Response{Status: 429, Err: msg, RetryAfterMS: retryAfter.Milliseconds()}
}

// finishLocked answers a job exactly once and releases its admission
// accounting. Caller holds mu.
func (s *Server) finishLocked(j *job, resp Response) {
	if j.finished {
		return
	}
	j.finished = true
	j.resp = resp
	s.tenants[j.req.Tenant]--
	if s.tenants[j.req.Tenant] <= 0 {
		delete(s.tenants, j.req.Tenant)
	}
	if j.fl != nil {
		s.completeFlightLocked(j.key, j.fl, resp)
	}
	close(j.done)
}

func (s *Server) completeFlightLocked(key string, fl *flight, resp Response) {
	fl.resp = resp
	close(fl.done)
	// Delete rather than memoize: a rejected flight must not pin its 429
	// forever, and accepted results are served by the store cache.
	delete(s.flights, key)
}

func (s *Server) finish(j *job, resp Response) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.finishLocked(j, resp)
}

// pop blocks for the next runnable job: highest priority first, FIFO
// within a priority. Returns nil when the server is stopping and the
// queue is drained.
func (s *Server) pop() *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for len(s.queue) > 0 {
			best := 0
			for i, q := range s.queue {
				if q.prio > s.queue[best].prio {
					best = i
				}
			}
			j := s.queue[best]
			s.queue = append(s.queue[:best], s.queue[best+1:]...)
			s.gQueue.Set(uint64(len(s.queue)))
			if j.fl == nil && j.ctx != nil && j.ctx.Err() != nil && !s.draining {
				// The waiter gave up while queued; don't burn a worker on
				// a job no follower or later retry can collect.
				s.finishLocked(j, Response{Status: StatusClientGone, Err: "client gone before start"})
				continue
			}
			if s.draining {
				j.meter.Cancel("server draining")
			}
			s.inflight[j] = struct{}{}
			s.gInflight.Set(uint64(len(s.inflight)))
			return j
		}
		if s.draining {
			return nil
		}
		s.cond.Wait()
	}
}

// start launches the worker fleet. Each worker runs jobs until pop
// reports the drained queue of a stopping server; runJob contains every
// panic, so a worker never dies of the job it runs.
func (s *Server) start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.workerWG.Add(1)
		go func() {
			defer s.workerWG.Done()
			for j := s.pop(); j != nil; j = s.pop() {
				s.runJob(j)
			}
		}()
	}
}

// runJob executes one analysis with panic containment. A panic marks the
// job failed (503), charges the shape's crash budget, and possibly trips
// the quarantine breaker; it never takes the server down.
func (s *Server) runJob(j *job) {
	defer func() {
		if r := recover(); r != nil {
			s.recordCrash(j, r)
		}
		s.mu.Lock()
		delete(s.inflight, j)
		s.gInflight.Set(uint64(len(s.inflight)))
		s.mu.Unlock()
	}()

	if s.cfg.AllowChaos && j.req.Chaos == ChaosPanicWorker {
		panic(fmt.Sprintf("chaos: injected worker panic (job %d, nf %s)", j.id, j.req.NF))
	}

	rec := obs.New(s.clock)
	if j.sub != nil {
		rec.Subscribe(j.sub)
	}
	inst, err := nf.New(j.req.NF)
	if err != nil {
		s.finish(j, Response{Status: 422, Err: err.Error()})
		return
	}
	hier := memsim.New(memsim.DefaultGeometry(), j.req.Seed)
	cfg := castan.Config{
		NPackets:  j.req.Packets,
		MaxStates: j.req.MaxStates,
		Seed:      j.req.Seed,
		Workers:   s.cfg.AnalysisWorkers,
		Obs:       rec,
		Budget:    j.meter,
		Store:     s.cfg.Store,
		Tables:    &s.tables,
		Faults:    s.plan(j.req.Fault),
	}
	out, err := castan.Analyze(inst, hier, cfg)
	if err != nil {
		// An analysis refusal is a property of the request, not a server
		// failure: 422, never 500.
		s.finish(j, Response{Status: 422, Err: err.Error()})
		return
	}
	rep := &out.Report
	degraded := len(rep.Degradations) > 0
	s.cCompleted.Inc()
	if degraded {
		s.cDegraded.Inc()
	}
	if s.cfg.TenantBudget > 0 {
		s.mu.Lock()
		tm := s.tenantMeter[j.req.Tenant]
		s.mu.Unlock()
		tm.Stage("analysis").Charge(rep.BudgetTicksUsed)
	}
	if j.key != "" && s.cfg.Store != nil && !degraded {
		// Persist only clean outcomes, matching the store's
		// "degraded artifacts are never persisted" rule.
		if data, err := json.Marshal(rep); err == nil {
			_ = s.cfg.Store.Put(store.KindReport, j.key, data)
		}
	}
	s.finish(j, Response{Status: 200, Report: rep, Degraded: degraded})
}

// recordCrash books one worker crash against the job's shape and opens
// the circuit breaker at the threshold.
func (s *Server) recordCrash(j *job, r any) {
	s.cCrashes.Inc()
	s.mu.Lock()
	shape := j.req.shape()
	s.crashes[shape]++
	if s.crashes[shape] >= s.cfg.CrashQuarantine && !s.quarantined[shape] {
		s.quarantined[shape] = true
		s.cQuarantineOpens.Inc()
	}
	s.finishLocked(j, Response{Status: 503, Err: fmt.Sprintf("worker crashed running job: %v", r)})
	s.mu.Unlock()
}

// CrashCount reports how many crashes a request shape has caused and
// whether it is quarantined (tests and debugging).
func (s *Server) CrashCount(req Request) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.crashes[req.shape()], s.quarantined[req.shape()]
}

// Shutdown drains the server: stop admitting (new requests get 503,
// readyz flips), cancel every queued and in-flight analysis budget so
// each degrades into a valid partial Report at its next deterministic
// checkpoint, and wait for the fleet to finish the queue — bounded by
// ctx. Idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		for _, j := range s.queue {
			j.meter.Cancel("server draining")
		}
		for j := range s.inflight {
			j.meter.Cancel("server draining")
		}
		s.cond.Broadcast()
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain incomplete: %w", ctx.Err())
	}
}

// queueSnapshot returns queue depth and inflight count (tests).
func (s *Server) queueSnapshot() (queued, inflight int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue), len(s.inflight)
}

// sortedQueuePriorities is a test helper: the priorities currently
// queued, descending.
func (s *Server) sortedQueuePriorities() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int, len(s.queue))
	for i, j := range s.queue {
		out[i] = j.prio
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}
