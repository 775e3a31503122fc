package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

// primeBacklog makes the admission estimate large and certain: the
// pool's observed mean job execution time for kind is seeded at
// `mean` (what admission prices the backlog with — NOT the HTTP
// handler latency, which for async submits is microseconds) and
// `njobs` blocked jobs occupy the pool. Returns the gate releasing
// them.
func primeBacklog(t *testing.T, s *Server, kind string, mean time.Duration, njobs int) chan struct{} {
	t.Helper()
	s.pool.ObserveExec(kind, mean)
	gate := make(chan struct{})
	for i := 0; i < njobs; i++ {
		id := "sha256:block" + strconv.Itoa(i)
		if _, err := s.pool.Submit(id, func(ctx context.Context) (any, error) {
			select {
			case <-gate:
			case <-ctx.Done():
			}
			return nil, nil
		}); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			// Wait for the workers to pick the first job up, so the
			// queue holds only the overflow and later submissions
			// cannot trip the queue bound prematurely.
			deadline := time.Now().Add(5 * time.Second)
			for s.pool.Stats().Running == 0 {
				if time.Now().After(deadline) {
					t.Fatal("first blocked job never started")
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	return gate
}

// TestAdmissionShedsDoomedRequests: with a deep backlog of slow work,
// a request with a short explicit deadline is shed with 429 +
// Retry-After instead of queued past its patience; a patient request
// is still admitted.
func TestAdmissionShedsDoomedRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 64})
	gate := primeBacklog(t, s, "predict", 2*time.Second, 4)
	released := false
	defer func() {
		if !released {
			close(gate)
		}
	}()

	req, err := http.NewRequest("POST", ts.URL+"/v1/predict", strings.NewReader(predictS4))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(deadlineHeader, "100ms") // est wait ≈ 10s (4×2s backlog + 2s own) ≫ 100ms
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("impatient request: %d %s, want 429", resp.StatusCode, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error.Class != "queue_full" {
		t.Fatalf("shed body %s", body)
	}
	ra := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Fatalf("shed Retry-After %q, want ≥1 whole seconds", ra)
	}

	// /metricsz counts the shed.
	mresp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	var mz Metricsz
	if err := json.Unmarshal(readBody(t, mresp), &mz); err != nil {
		t.Fatal(err)
	}
	if mz.Admission.Shed < 1 {
		t.Fatalf("admission stats %+v after shed", mz.Admission)
	}

	// A patient caller gets through: admitted, queued behind the
	// backlog, answered once the gate opens.
	done := make(chan *http.Response, 1)
	go func() {
		r2, _ := http.NewRequest("POST", ts.URL+"/v1/predict", strings.NewReader(predictS4))
		r2.Header.Set("Content-Type", "application/json")
		r2.Header.Set(deadlineHeader, "1h")
		resp2, err := http.DefaultClient.Do(r2)
		if err == nil {
			done <- resp2
		}
	}()
	time.Sleep(50 * time.Millisecond) // let it enqueue before releasing
	close(gate)
	released = true
	select {
	case resp2 := <-done:
		if b := readBody(t, resp2); resp2.StatusCode != 200 {
			t.Fatalf("patient request: %d %s", resp2.StatusCode, b)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("patient request never completed")
	}
}

// TestQueueFullCarriesRetryAfter: the 429 a saturated queue returns
// derives its Retry-After from the backlog.
func TestQueueFullCarriesRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	gate := primeBacklog(t, s, "simulate", time.Second, 3) // 1 running + 2 queued = full
	defer close(gate)

	body := `{"topo":{"kind":"star","n":3},"v":4,"msg_len":8,"rate":0.001}`
	resp := postJSON(t, ts.URL+"/v1/simulate", body)
	rb := readBody(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue: %d %s, want 429", resp.StatusCode, rb)
	}
	var eb errorBody
	if err := json.Unmarshal(rb, &eb); err != nil || eb.Error.Class != "queue_full" {
		t.Fatalf("queue-full body %s", rb)
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
		t.Fatalf("queue-full Retry-After %q", resp.Header.Get("Retry-After"))
	}
}

// TestConcurrencyCapCarriesRetryAfter: the cap's 503 carries a
// derived Retry-After too (satellite of the same contract: every
// 429/503 tells the client when to come back).
func TestConcurrencyCapCarriesRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxInFlight: 1})
	// Occupy the single slot with a request that blocks in the pool.
	gate := primeBacklog(t, s, "block", time.Second, 1)
	released := false
	defer func() {
		if !released {
			close(gate)
		}
	}()
	blocked := make(chan struct{})
	go func() {
		defer close(blocked)
		req, _ := http.NewRequest("POST", ts.URL+"/v1/predict", strings.NewReader(predictS4))
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			readBody(t, resp)
		}
	}()
	// Wait for the slot to fill — the predict is queued behind the
	// blocked job, holding the slot — then probe: 503 + Retry-After.
	// Probing earlier races the predict for the single slot: a probe
	// holding it turns the predict away, and nothing fills it again.
	deadline := time.Now().Add(5 * time.Second)
	for s.pool.Stats().Queued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("predict never reached the pool")
		}
		time.Sleep(time.Millisecond)
	}
	for {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		b := readBody(t, resp)
		if resp.StatusCode == http.StatusServiceUnavailable {
			if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
				t.Fatalf("cap 503 Retry-After %q", resp.Header.Get("Retry-After"))
			}
			var eb errorBody
			if err := json.Unmarshal(b, &eb); err != nil || eb.Error.Class != "queue_full" {
				t.Fatalf("cap body %s", b)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("concurrency cap never hit")
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(gate)
	released = true
	<-blocked
}
