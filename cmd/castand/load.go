// castand load is the deterministic load generator for the daemon: it
// replays a seeded mix of analysis requests — mixed NFs, tenants,
// priorities, tiny budgets that force degradation, and (against a -chaos
// server) injected fault plans — through a bounded worker pool, retries
// admission pushback (429) with internal/retry backoff, and validates
// every 200 against the Report schema gate. It exits 0 when the service
// upheld its contract: no 5xx survived the retries, no transport errors,
// no invalid reports. 429s are backpressure, counted but not failures.

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"castan/internal/castan"
	"castan/internal/faultinject"
	"castan/internal/parallel"
	"castan/internal/retry"
	"castan/internal/service"
	"castan/internal/stats"
)

// loadSummary is the machine-readable run verdict (written to -out).
type loadSummary struct {
	Sent       int            `json:"sent"`
	OK         int            `json:"ok"`
	Degraded   int            `json:"degraded"`
	CacheHits  int            `json:"cache_hits"`
	Retries    int            `json:"retries"`
	Rejected   int            `json:"rejected_429"`
	Failed     int            `json:"failed"`
	Invalid    int            `json:"invalid_reports"`
	ByStatus   map[string]int `json:"by_status"`
	DurationMS int64          `json:"duration_ms"`
}

func load(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("castand load", stderr)
	var (
		baseURL   = fs.String("url", "", "castand base URL (e.g. http://127.0.0.1:8347)")
		addrFile  = fs.String("addr-file", "", "read the server address from this file (castand -addr-file)")
		n         = fs.Int("n", 50, "number of requests")
		c         = fs.Int("c", 8, "client concurrency")
		seed      = fs.Uint64("seed", 1, "request-mix seed")
		nfList    = fs.String("nfs", "nop,lpm-trie,nat-chain", "comma-separated NF mix")
		packets   = fs.Int("packets", 4, "workload length per request")
		states    = fs.Int("states", 1200, "exploration budget per request")
		tinyFrac  = fs.Float64("tiny-budget-frac", 0.2, "fraction of requests with a tiny tick budget (forces degradation)")
		faultFrac = fs.Float64("fault-frac", 0, "fraction of requests arming a faultinject.MatrixPlans entry (server must run -chaos)")
		keyFrac   = fs.Float64("key-frac", 0.2, "fraction of requests sharing idempotency keys")
		tenants   = fs.Int("tenants", 3, "tenant pool size")
		retries   = fs.Int("retries", 5, "attempts per request on 429/503")
		timeout   = fs.Duration("timeout", 2*time.Minute, "per-attempt HTTP timeout")
		outPath   = fs.String("out", "", "write the JSON summary here too")
	)
	if err := fs.Parse(args); err != nil {
		return parseExit(err)
	}
	fatal := func(err error) int { return fail(stderr, "castand load", err) }

	base := *baseURL
	if base == "" && *addrFile != "" {
		data, err := os.ReadFile(*addrFile)
		if err != nil {
			return fatal(err)
		}
		base = "http://" + strings.TrimSpace(string(data))
	}
	if base == "" {
		fmt.Fprintln(stderr, "castand load: one of -url or -addr-file is required")
		return 2
	}
	nfs := strings.Split(*nfList, ",")
	planNames := []string{}
	for _, p := range faultinject.MatrixPlans() {
		planNames = append(planNames, p.Name)
	}

	// The request mix is a pure function of the seed: request i draws
	// from its own split stream, so the mix is stable under -c.
	reqs := make([]service.Request, *n)
	rng := stats.NewRNG(*seed)
	for i := range reqs {
		r := stats.NewRNG(parallel.ShardSeed(rng.Uint64(), i))
		req := service.Request{
			NF:        nfs[r.Intn(len(nfs))],
			Packets:   *packets,
			MaxStates: *states,
			Seed:      uint64(i + 1),
			Tenant:    fmt.Sprintf("tenant-%d", r.Intn(*tenants)),
			Priority:  r.Intn(3),
		}
		if r.Float64() < *tinyFrac {
			req.Budget = 200 // small enough to cut any analysis short
		}
		if *faultFrac > 0 && r.Float64() < *faultFrac {
			req.Fault = planNames[r.Intn(len(planNames))]
		}
		if r.Float64() < *keyFrac {
			// A small key pool guarantees collisions: the single-flight
			// and report-cache paths get real traffic.
			req.Key = fmt.Sprintf("load-key-%d", r.Intn(4))
			req.Seed = uint64(r.Intn(2)) // keys must agree with params
		}
		reqs[i] = req
	}

	client := &http.Client{Timeout: *timeout}
	var mu sync.Mutex
	sum := loadSummary{Sent: *n, ByStatus: map[string]int{}}
	start := time.Now()

	parallel.ForEach(*c, *n, func(i int) {
		req := reqs[i]
		policy := retry.Policy{
			Base: 100 * time.Millisecond, Max: 2 * time.Second, Factor: 2,
			Jitter: 0.3, Seed: parallel.ShardSeed(*seed, i), Attempts: *retries,
		}
		var final int
		var rep *castan.Report
		var cacheHit bool
		err := retry.Do(context.Background(), policy, func(attempt int) error {
			if attempt > 0 {
				mu.Lock()
				sum.Retries++
				mu.Unlock()
			}
			status, report, hit, err := post(client, base, req)
			final, rep, cacheHit = status, report, hit
			switch {
			case err != nil:
				return err
			case status == 200:
				return nil
			case status == 429 || status == 503:
				// Backpressure and transient unavailability: retry under
				// the policy's backoff (respecting the spirit of
				// Retry-After; the policy's schedule dominates it here).
				return fmt.Errorf("status %d", status)
			default:
				// 4xx and 5xx beyond pushback cannot be fixed by retrying.
				return retry.Stop(fmt.Errorf("status %d", status))
			}
		})
		mu.Lock()
		defer mu.Unlock()
		sum.ByStatus[fmt.Sprint(final)]++
		if err != nil {
			if final == 429 {
				sum.Rejected++
			}
			sum.Failed++
			fmt.Fprintf(stderr, "castand load: request %d (%s): %v\n", i, req.NF, err)
			return
		}
		sum.OK++
		if cacheHit {
			sum.CacheHits++
		}
		if cerr := rep.Check(req.NF); cerr != nil {
			sum.Invalid++
			fmt.Fprintf(stderr, "castand load: request %d: invalid report: %v\n", i, cerr)
			return
		}
		if len(rep.Degradations) > 0 {
			sum.Degraded++
		}
	})
	sum.DurationMS = time.Since(start).Milliseconds()

	data, _ := json.MarshalIndent(sum, "", " ")
	fmt.Fprintln(stdout, string(data))
	if *outPath != "" {
		if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
			return fatal(err)
		}
	}
	if sum.Failed > 0 || sum.Invalid > 0 {
		return 1
	}
	return 0
}

// post sends one request and decodes a 200 into a Report.
func post(client *http.Client, base string, req service.Request) (int, *castan.Report, bool, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, nil, false, err
	}
	resp, err := client.Post(base+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return resp.StatusCode, nil, false, nil
	}
	rep, err := castan.ReadReport(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, false, err
	}
	return 200, rep, resp.Header.Get("X-Castan-Cache") == "hit", nil
}
