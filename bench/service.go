package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"castan/internal/castan"
	"castan/internal/obs"
	"castan/internal/packet"
	"castan/internal/service"
	"castan/internal/stats"
)

// The service mix's shape. A block is one pass: every NF gets the same
// number of slots, of which a fixed few carry a tiny budget or an
// idempotency key, so blocks differ only in order, seeds and tenants and
// their wall times compare.
const (
	mixPackets    = 4
	mixStates     = 1200
	mixPerNF      = 16 // slots per NF per block
	mixTinyPerNF  = 2  // of which: 200-tick budgets (nop never degrades, so its two stay plain)
	mixKeyedPerNF = 2  // of which: idempotency-keyed
	mixTinyBudget = 200
	mixSeeds      = 4
	mixTenants    = 3
	mixKeys       = 8
	mixClients    = 2
	mixWarmup     = 100
)

// mixKey is idempotency key k's request shape: a key always names the
// same NF and seed, as a retrying client's would. Keys 0..6 are one per
// mix NF at the pool's first seed; key 7 is nop again at the second.
func mixKey(seed uint64, k int) service.Request {
	return service.Request{
		NF: mixNFs[k%len(mixNFs)], Packets: mixPackets, MaxStates: mixStates,
		Seed: seed + uint64(k/len(mixNFs)), Key: fmt.Sprintf("bench-key-%d", k),
	}
}

// mixBlock is block n of the request mix, a pure function of the seed.
func mixBlock(seed uint64, n int) []service.Request {
	rng := stats.NewRNG(seed ^ uint64(n+1)*0x9e3779b97f4a7c15)
	var reqs []service.Request
	for i, name := range mixNFs {
		for slot := 0; slot < mixPerNF; slot++ {
			req := service.Request{
				NF: name, Packets: mixPackets, MaxStates: mixStates,
				Seed: seed + uint64(rng.Intn(mixSeeds)),
			}
			switch {
			case slot < mixTinyPerNF:
				if name != "nop" {
					req.Budget = mixTinyBudget
				}
			case slot < mixTinyPerNF+mixKeyedPerNF:
				k := i
				if name == "nop" && rng.Intn(2) == 1 {
					k = mixKeys - 1
				}
				req = mixKey(seed, k)
			}
			req.Tenant = fmt.Sprintf("tenant-%d", rng.Intn(mixTenants))
			reqs = append(reqs, req)
		}
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

// mixWarmupRequests is the untimed phase that fills every cache the
// timed phase may hit: each (NF, seed) once at full budget, each key
// once, then ordinary mix traffic up to mixWarmup requests.
func mixWarmupRequests(seed uint64) []service.Request {
	var reqs []service.Request
	for _, name := range mixNFs {
		for s := 0; s < mixSeeds; s++ {
			reqs = append(reqs, service.Request{NF: name, Packets: mixPackets, MaxStates: mixStates, Seed: seed + uint64(s)})
		}
	}
	for k := 0; k < mixKeys; k++ {
		reqs = append(reqs, mixKey(seed, k))
	}
	filler := mixBlock(seed, -1)
	return append(reqs, filler[:mixWarmup-len(reqs)]...)
}

// serviceInstance is a running castand with warm caches.
type serviceInstance struct {
	seed   uint64
	cmd    *exec.Cmd
	base   string
	client *http.Client
	mu     sync.Mutex
	// refs holds the first full-budget report per (NF, seed); the service
	// promises every later one describes the same outcome.
	refs map[string]*castan.Report
}

func serviceSetup(h *harness, seed uint64) (instance, error) {
	dir, err := h.dir("castand")
	if err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	cmd := exec.Command(h.castand, "-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-workers", strconv.Itoa(procs), "-analysis-workers", "1", "-store", filepath.Join(dir, "store"))
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs))
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &serviceInstance{
		seed: seed, cmd: cmd, refs: map[string]*castan.Report{},
		client: &http.Client{
			Timeout:   time.Minute,
			Transport: &http.Transport{MaxConnsPerHost: mixClients, MaxIdleConnsPerHost: mixClients},
		},
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.base == "" {
		if data, err := os.ReadFile(addrFile); err == nil {
			s.base = "http://" + strings.TrimSpace(string(data))
		} else if time.Now().After(deadline) {
			s.close()
			return nil, fmt.Errorf("castand did not publish its address")
		} else {
			time.Sleep(2 * time.Millisecond)
		}
	}
	if out := s.drive(nil, "warmup", mixWarmupRequests(seed)); out.failed > 0 {
		s.close()
		return nil, fmt.Errorf("warm-up: %d of %d requests failed: %s", out.failed, out.attempted, strings.Join(out.problems, "; "))
	}
	return s, nil
}

// exchange is one answered request.
type exchange struct {
	req service.Request
	rep *castan.Report
	ms  float64
}

// post sends one request and checks the answer: anything but a 200
// carrying a valid report is a failure (no retries); a tiny budget must
// degrade, a full one must not and must repeat the reference outcome.
func (s *serviceInstance) post(req service.Request) (*exchange, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	resp, err := s.client.Post(s.base+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("%s: status %d: %s", req.NF, resp.StatusCode, bytes.TrimSpace(msg))
	}
	rep, err := castan.ReadReport(resp.Body)
	ex := &exchange{req: req, rep: rep, ms: time.Since(start).Seconds() * 1e3}
	if err != nil {
		return nil, err
	}
	if err := rep.Check(req.NF); err != nil {
		return nil, fmt.Errorf("%s: invalid report: %w", req.NF, err)
	}
	degraded := len(rep.Degradations) > 0
	if tiny := req.Budget > 0; tiny != degraded {
		return nil, fmt.Errorf("%s: budget %d but degraded=%v", req.NF, req.Budget, degraded)
	}
	if !degraded {
		id := fmt.Sprintf("%s/%d", req.NF, req.Seed)
		s.mu.Lock()
		ref := s.refs[id]
		if ref == nil {
			s.refs[id] = rep
		}
		s.mu.Unlock()
		if ref != nil && !sameOutcome(ref, rep) {
			return nil, fmt.Errorf("%s: report differs from the first one for the same request", id)
		}
	}
	return ex, nil
}

// sameOutcome is Report.SameOutcome with the tick total exempt too: a
// store hit skips discovery's probe ticks, which is effort, not outcome.
func sameOutcome(a, b *castan.Report) bool {
	x, y := *a, *b
	x.BudgetTicksUsed, y.BudgetTicksUsed = 0, 0
	return x.SameOutcome(&y)
}

// drive sends reqs in a closed loop from mixClients clients: each sends
// its next request only when the previous one is answered.
func (s *serviceInstance) drive(tr *tracer, run string, reqs []service.Request) (out passOutcome) {
	out.attempted = len(reqs)
	done := make([]*exchange, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	start := time.Now()
	for c := 0; c < mixClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				sp := tr.begin(fmt.Sprintf("%s/req%d/%s", run, i, reqs[i].NF), "http.analyze", 0)
				ex, err := s.post(reqs[i])
				tr.end(sp)
				if err != nil {
					mu.Lock()
					out.failed++
					out.problems = append(out.problems, err.Error())
					mu.Unlock()
					continue
				}
				done[i] = ex
			}
		}()
	}
	wg.Wait()
	out.wall = time.Since(start)
	out.rssMB = peakRSSMB(strconv.Itoa(s.cmd.Process.Pid)) // castand is still running: no rusage yet
	for _, ex := range done {
		if ex != nil {
			out.opMS = append(out.opMS, ex.ms)
		}
	}
	if tr != nil {
		out.layer = s.layerValues(done, out.wall)
	}
	return out
}

func (s *serviceInstance) pass(tr *tracer, n int) passOutcome {
	return s.drive(tr, fmt.Sprintf("pass%d", n), mixBlock(s.seed, n))
}

// layerValues turns one traced pass into per-layer values: per-NF
// medians over the plain (full-budget, unkeyed) requests, the pipeline
// telemetry the reports carry, and a /metricsz scrape.
func (s *serviceInstance) layerValues(done []*exchange, wall time.Duration) map[string]float64 {
	layer := map[string]float64{"service.throughput_rps": float64(len(done)) / wall.Seconds()}
	latency, analyze := map[string][]float64{}, map[string][]float64{}
	for _, ex := range done {
		if ex == nil || ex.req.Key != "" {
			continue // keyed requests are answered from the report cache
		}
		addTelemetry(layer, ex.rep.Telemetry)
		layer["castan.budget_ticks"] += float64(ex.rep.BudgetTicksUsed)
		if ex.req.Budget == 0 {
			latency[ex.req.NF] = append(latency[ex.req.NF], ex.ms)
			analyze[ex.req.NF] = append(analyze[ex.req.NF], ex.rep.AnalysisSeconds)
		}
	}
	for name, ms := range latency {
		layer["service.p50_ms."+name] = median(ms)
		if name != "nop" {
			layer["castan.nf."+name+".analyze_s"] = median(analyze[name])
		}
	}
	if resp, err := s.client.Get(s.base + "/metricsz"); err == nil {
		if m, err := obs.ReadMetrics(resp.Body); err == nil {
			for _, c := range []string{service.CounterAccepted, service.CounterDegraded, service.CounterCacheHits,
				service.CounterSingleflight, service.CounterRejectedQueue} {
				layer[c] = float64(m.Counters[c])
			}
		}
		resp.Body.Close()
	}
	return layer
}

// quality rebuilds each reference report's packets from its flows (a
// report names every packet's 5-tuple, and the frames are a function of
// it) and replays them, as a client holding only the report would.
func (s *serviceInstance) quality() (float64, []string) {
	var cycles []float64
	var problems []string
	ids := make([]string, 0, len(s.refs))
	for id := range s.refs {
		ids = append(ids, id)
	}
	sort.Strings(ids) // a fixed order, so the mean's last digits repeat
	for _, id := range ids {
		rep := s.refs[id]
		_, seed, _ := strings.Cut(id, "/")
		dutSeed, _ := strconv.ParseUint(seed, 10, 64)
		var frames [][]byte
		for _, p := range rep.Packets {
			fr, err := frameFromFlow(p.Flow)
			if err != nil {
				problems = append(problems, fmt.Sprintf("%s: %v", id, err))
				continue
			}
			frames = append(frames, fr)
		}
		c, err := measureCycles(rep.NF, frames, dutSeed)
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		cycles = append(cycles, c)
	}
	return geomean(cycles), problems
}

// frameFromFlow inverts packet.FiveTuple.String.
func frameFromFlow(flow string) ([]byte, error) {
	proto, rest, _ := strings.Cut(flow, " ")
	src, dst, _ := strings.Cut(rest, "->")
	s, err := netip.ParseAddrPort(src)
	if err != nil {
		return nil, fmt.Errorf("flow %q: %w", flow, err)
	}
	d, err := netip.ParseAddrPort(dst)
	if err != nil {
		return nil, fmt.Errorf("flow %q: %w", flow, err)
	}
	t := packet.FiveTuple{
		SrcIP: packet.AddrU32(s.Addr()), DstIP: packet.AddrU32(d.Addr()),
		SrcPort: s.Port(), DstPort: d.Port(), Proto: packet.ProtoUDP,
	}
	if proto == "tcp" {
		t.Proto = packet.ProtoTCP
	}
	return packet.FromTuple(t), nil
}

// close drains castand and waits for it to exit.
func (s *serviceInstance) close() {
	if s.cmd.Process == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan struct{})
	go func() {
		_ = s.cmd.Wait()
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-exited
	}
	s.client.CloseIdleConnections()
}
