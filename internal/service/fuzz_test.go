package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzAnalyzeBody POSTs arbitrary bytes to /v1/analyze: the handler must
// never panic or answer 5xx, a body that fails to decode or to validate
// is a 400 with a JSON error body, and a body that decodes and validates
// is admitted and marshals back to the same Request. No analysis runs:
// the server has no workers and every request arrives with its context
// already cancelled, so Do returns as soon as the request is queued.
func FuzzAnalyzeBody(f *testing.F) {
	// castand load's request shapes: plain, tiny budget, armed fault plan,
	// colliding idempotency key.
	for _, req := range []Request{
		{NF: "lb-chain", Packets: 4, MaxStates: 1500, Seed: 1, Tenant: "tenant-0", Priority: 2},
		{NF: "lpm-trie", Packets: 4, MaxStates: 1500, Seed: 2, Tenant: "tenant-1", Budget: 200},
		{NF: "nop", Packets: 4, MaxStates: 1500, Seed: 3, Tenant: "tenant-2", Fault: "solver-unknown"},
		{NF: "lpm-dl1", Packets: 4, MaxStates: 1500, Tenant: "tenant-0", Key: "load-key-3"},
		{NF: "nop", Chaos: ChaosPanicWorker, DeadlineMS: 50},
	} {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"nf":"no-such-nf"}`))
	f.Add([]byte(`{"nf":"nop","packets":-1}`))
	f.Add([]byte(`{"nf":"nop","max_states":1e99}`))
	f.Add([]byte(`{"nf":"nop","fault":"no-such-plan"}`))
	f.Add([]byte(`{"NF":"nop","nf":"lb-ring"} trailing`))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f.Fuzz(func(t *testing.T, body []byte) {
		s := newServer(Config{AllowChaos: true})
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body)).WithContext(ctx))
		if w.Code >= 500 {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}

		var req Request
		err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
		if err == nil {
			err = s.validate(&req)
		}
		if err != nil {
			var e struct {
				Error string `json:"error"`
			}
			if w.Code != 400 || json.Unmarshal(w.Body.Bytes(), &e) != nil || e.Error == "" {
				t.Fatalf("%v, yet answered %d %q", err, w.Code, w.Body)
			}
			return
		}
		if w.Code != StatusClientGone {
			t.Fatalf("valid request %+v answered %d %q, want admission then %d", req, w.Code, w.Body, StatusClientGone)
		}
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var back Request
		if err := json.Unmarshal(again, &back); err != nil || back != req {
			t.Fatalf("request %+v marshalled to %s, which decodes to %+v (%v)", req, again, back, err)
		}
	})
}
