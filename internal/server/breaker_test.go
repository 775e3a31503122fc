package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// fakeClock drives breaker time without sleeping.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }
func withClock(b *breakerSet, c *fakeClock) *breakerSet {
	b.now = c.now
	return b
}

// TestBreakerTripsOnSustainedFailures: below MinSamples nothing
// trips; at the failure ratio the route opens and rejects.
func TestBreakerTripsOnSustainedFailures(t *testing.T) {
	clk := newFakeClock()
	b := withClock(newBreakerSet(BreakerConfig{Window: 10, MinSamples: 4, FailureRatio: 0.5, Cooldown: time.Second}), clk)

	for i := 0; i < 3; i++ {
		b.observe("/x", true)
		if ok, _ := b.allow("/x"); !ok {
			t.Fatalf("tripped after %d samples, below MinSamples", i+1)
		}
	}
	b.observe("/x", true) // 4 failures / 4 samples ≥ 0.5
	ok, wait := b.allow("/x")
	if ok {
		t.Fatal("breaker closed after sustained failures")
	}
	if wait <= 0 || wait > time.Second {
		t.Fatalf("retry-after %v outside (0, cooldown]", wait)
	}
	st := b.report()
	if len(st) != 1 || st[0].State != breakerOpen || st[0].Trips != 1 || st[0].Rejected != 1 {
		t.Fatalf("report = %+v", st)
	}
}

// TestBreakerHalfOpenProbe: after the cooldown exactly one probe is
// admitted; its success closes the breaker, its failure re-opens it.
func TestBreakerHalfOpenProbe(t *testing.T) {
	clk := newFakeClock()
	b := withClock(newBreakerSet(BreakerConfig{Window: 4, MinSamples: 2, FailureRatio: 0.5, Cooldown: time.Second}), clk)
	b.observe("/x", true)
	b.observe("/x", true)
	if ok, _ := b.allow("/x"); ok {
		t.Fatal("not open after trip")
	}

	clk.advance(1500 * time.Millisecond)
	if ok, _ := b.allow("/x"); !ok {
		t.Fatal("cooldown elapsed but probe rejected")
	}
	// Concurrent request while the probe is in flight: rejected.
	if ok, _ := b.allow("/x"); ok {
		t.Fatal("second probe admitted concurrently")
	}

	// Probe fails → open again, full cooldown.
	b.observe("/x", true)
	if ok, _ := b.allow("/x"); ok {
		t.Fatal("re-opened breaker admitted a request")
	}
	if st := b.report(); st[0].Trips != 2 {
		t.Fatalf("trips = %d, want 2", st[0].Trips)
	}

	// Second probe succeeds → closed, and the window restarts clean
	// (one old failure must not re-trip it).
	clk.advance(1500 * time.Millisecond)
	if ok, _ := b.allow("/x"); !ok {
		t.Fatal("second probe rejected")
	}
	b.observe("/x", false)
	if st := b.report(); st[0].State != breakerClosed {
		t.Fatalf("state %q after healthy probe", st[0].State)
	}
	b.observe("/x", true)
	if ok, _ := b.allow("/x"); !ok {
		t.Fatal("single failure after close re-tripped a reset window")
	}
}

// TestBreakerDisabled: a disabled breaker is a pass-through.
func TestBreakerDisabled(t *testing.T) {
	b := newBreakerSet(BreakerConfig{Disabled: true, MinSamples: 1, FailureRatio: 0.1})
	for i := 0; i < 50; i++ {
		b.observe("/x", true)
	}
	if ok, _ := b.allow("/x"); !ok {
		t.Fatal("disabled breaker rejected")
	}
}

// TestBreakerOverHTTP drives the breaker through the real stack: a
// 1ns job timeout turns every cold predict into a 504, the route
// trips, and the next request is rejected locally with 503
// queue_full + Retry-After — without touching the pool.
func TestBreakerOverHTTP(t *testing.T) {
	// A memory-only cache, unlike newTestServer's: the 1 ns job timeout
	// abandons computations that still store their results after the
	// test returns, and no drain waits for an abandoned goroutine, so a
	// disk cache in a TempDir would race the directory's removal.
	s, err := New(Config{
		Workers:    1,
		JobTimeout: time.Nanosecond,
		Breaker:    BreakerConfig{Window: 8, MinSamples: 3, FailureRatio: 0.5, Cooldown: time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	closeOnCleanup(t, s, nil)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	sawOpen := false
	for i := 0; i < 8 && !sawOpen; i++ {
		// Distinct bodies: the abandoned post-timeout computation of a
		// request eventually lands in the cache, so a repeat of the same
		// body could be a 200 hit instead of a 504 failure sample.
		body4 := fmt.Sprintf(`{"topo":{"kind":"star","n":4},"v":4,"msg_len":%d,"rate":0.004}`, 16+i)
		resp := postJSON(t, ts.URL+"/v1/predict", body4)
		body := readBody(t, resp)
		switch resp.StatusCode {
		case http.StatusGatewayTimeout:
			// the failures that feed the window
		case http.StatusServiceUnavailable:
			var eb errorBody
			if err := json.Unmarshal(body, &eb); err != nil || eb.Error.Class != "queue_full" {
				t.Fatalf("503 body %s", body)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("breaker 503 without Retry-After")
			}
			sawOpen = true
		default:
			t.Fatalf("request %d: %d %s", i, resp.StatusCode, body)
		}
	}
	if !sawOpen {
		t.Fatal("breaker never opened under sustained 504s")
	}

	// /metricsz reports the trip and the local rejection.
	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	var mz Metricsz
	if err := json.Unmarshal(readBody(t, resp), &mz); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, b := range mz.Breakers {
		if b.Route == "/v1/predict" {
			found = true
			if b.State != breakerOpen || b.Trips < 1 || b.Rejected < 1 {
				t.Fatalf("breaker stats %+v", b)
			}
		}
	}
	if !found {
		t.Fatalf("no /v1/predict breaker in %+v", mz.Breakers)
	}
	if mz.Admission.BreakerRejected < 1 {
		t.Fatalf("admission stats %+v", mz.Admission)
	}
	_ = s
}
