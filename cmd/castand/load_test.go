package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"castan/internal/parallel"
)

// TestBackoffSchedule pins the retry schedule of castand load: the waits
// after attempts 0–6 of requests 0 and 7 under -seed 1.
func TestBackoffSchedule(t *testing.T) {
	want := map[int][]time.Duration{
		0: {88954314, 143386146, 394569160, 613415139, 1494824737, 1535360496, 1624240037},
		7: {72396792, 183576722, 289828545, 627922629, 1183454844, 1946568259, 1741795832},
	}
	for i, ds := range want {
		for k, w := range ds {
			got := backoff(parallel.ShardSeed(1, i), k)
			if got != w {
				t.Errorf("request %d, attempt %d: backoff %v, want %v", i, k, got, w)
			}
		}
	}
}

// TestBackoffJitterDeterministic checks the jitter of castand load's
// backoff: every wait is min(100 ms·2^k, 2 s) jittered down by at most
// 30 %, two evaluations agree exactly, and different requests' seeds give
// different schedules.
func TestBackoffJitterDeterministic(t *testing.T) {
	for i := 0; i < 16; i++ {
		seed := parallel.ShardSeed(1, i)
		for k := 0; k < 8; k++ {
			got := backoff(seed, k)
			if again := backoff(seed, k); again != got {
				t.Fatalf("request %d, attempt %d: backoff not deterministic: %v vs %v", i, k, got, again)
			}
			full := min(100*time.Millisecond<<k, 2*time.Second)
			if got > full || float64(got) < 0.7*float64(full) {
				t.Errorf("request %d, attempt %d: backoff %v outside [0.7·%v, %v]", i, k, got, full, full)
			}
		}
	}
	a, b := parallel.ShardSeed(1, 0), parallel.ShardSeed(1, 1)
	same := true
	for k := 0; k < 8; k++ {
		if backoff(a, k) != backoff(b, k) {
			same = false
			break
		}
	}
	if same {
		t.Error("requests 0 and 1 got identical jittered schedules")
	}
}

// TestLoadRetries drives castand load against a stub server. Pushback
// (503, then 429) is retried and the request then succeeds; a 400 is an
// answer and is not retried; a dead server is retried until -retries
// attempts are spent.
func TestLoadRetries(t *testing.T) {
	okReport := `{"nf":"nop","packets":[{"index":0,"flow":"","predicted_cycles":0}]}`
	for _, tc := range []struct {
		name     string
		statuses []int // per attempt; the last one repeats
		dead     bool
		exit     int
		posts    int64
		retries  int
	}{
		{name: "pushback", statuses: []int{503, 429, 200}, exit: 0, posts: 3, retries: 2},
		{name: "client-error", statuses: []int{400}, exit: 1, posts: 1, retries: 0},
		{name: "dead-server", dead: true, exit: 1, retries: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var posts atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				n := int(posts.Add(1)) - 1
				status := tc.statuses[min(n, len(tc.statuses)-1)]
				w.WriteHeader(status)
				if status == 200 {
					w.Write([]byte(okReport))
				}
			}))
			url := srv.URL
			if tc.dead {
				srv.Close()
			} else {
				defer srv.Close()
			}
			var out, errb bytes.Buffer
			code := run([]string{"load", "-url", url, "-n", "1", "-c", "1", "-nfs", "nop",
				"-tiny-budget-frac", "0", "-key-frac", "0", "-retries", "3"}, &out, &errb)
			if code != tc.exit {
				t.Fatalf("exit %d, want %d; stdout:\n%s\nstderr: %s", code, tc.exit, out.String(), errb.String())
			}
			var sum loadSummary
			if err := json.Unmarshal(out.Bytes(), &sum); err != nil {
				t.Fatalf("summary: %v\n%s", err, out.String())
			}
			if sum.Retries != tc.retries {
				t.Errorf("retries = %d, want %d", sum.Retries, tc.retries)
			}
			if got := posts.Load(); !tc.dead && got != tc.posts {
				t.Errorf("server saw %d posts, want %d", got, tc.posts)
			}
		})
	}
}
