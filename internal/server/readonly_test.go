package server

// The disk-full degradation drill, over HTTP: an injected ENOSPC in
// the journal flips the node into typed read-only mode — async
// submissions refuse with a 503 read_only envelope, /healthz and
// /metricsz advertise the state — while the synchronous predict route
// keeps serving. Freeing space recovers the node through the probe,
// with no restart.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"starperf/internal/fsx"
	"starperf/internal/journal"
)

const (
	roSim     = `{"topo":{"kind":"star","n":3},"v":4,"msg_len":8,"rate":0.002,"seed":21}`
	roPredict = `{"topo":{"kind":"star","n":4},"v":4,"msg_len":16,"rate":0.004}`
)

// newReadOnlyStack builds a journaled server whose journal disk is an
// fsx.Faulty, with recovery probes allowed on every refusal so the
// drill observes state transitions without waiting out a rate limit.
func newReadOnlyStack(t *testing.T) (*fsx.Faulty, *journal.Journal, *httptest.Server) {
	t.Helper()
	fa := fsx.NewFaulty(fsx.OS{}, fsx.FaultPlan{Seed: 1})
	j, _, err := journal.Open(journal.Options{Dir: t.TempDir(), FS: fa})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Workers: 1, Cache: cacheCfgDir(t.TempDir()), Journal: j, ProbeEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	closeOnCleanup(t, s, j)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return fa, j, ts
}

func TestDiskFullFlipsReadOnlyAndRecovers(t *testing.T) {
	fa, j, ts := newReadOnlyStack(t)

	// Healthy: an async submit lands and /healthz carries no flag.
	resp := postJSON(t, ts.URL+"/v1/simulate", roSim)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy submit: %d %s", resp.StatusCode, readBody(t, resp))
	}
	readBody(t, resp)

	// The disk fills. The next async submit's journal append hits
	// ENOSPC: the submission is refused (never acknowledged without
	// durability) and the journal trips read-only — after that,
	// submissions are refused up front with the typed envelope.
	fa.SetFull(true)
	resp = postJSON(t, ts.URL+"/v1/simulate", strings.Replace(roSim, `"seed":21`, `"seed":22`, 1))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit on full disk: %d %s", resp.StatusCode, readBody(t, resp))
	}
	readBody(t, resp)
	if !j.ReadOnly() {
		t.Fatal("journal not read-only after ENOSPC")
	}

	resp = postJSON(t, ts.URL+"/v1/simulate", strings.Replace(roSim, `"seed":21`, `"seed":23`, 1))
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("read-only submit: %d %s", resp.StatusCode, body)
	}
	var env struct {
		Error struct {
			Class        string `json:"class"`
			RetryAfterMS int64  `json:"retry_after_ms"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("503 body is not the v1 envelope: %v: %s", err, body)
	}
	if env.Error.Class != classReadOnly || env.Error.RetryAfterMS <= 0 {
		t.Fatalf("envelope = %+v, want class %q with a retry hint", env.Error, classReadOnly)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("read-only 503 missing Retry-After")
	}

	// Sync predict still serves: no durability is promised, none is
	// needed.
	resp = postJSON(t, ts.URL+"/v1/predict", roPredict)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync predict during read-only: %d %s", resp.StatusCode, readBody(t, resp))
	}
	readBody(t, resp)

	// Health and metrics advertise the degradation.
	hb := getJSON(t, ts.URL+"/healthz")
	if hb["journal_readonly"] != true {
		t.Fatalf("healthz = %v, want journal_readonly true", hb)
	}
	mb := getJSON(t, ts.URL+"/metricsz")
	if mb["journal_readonly"] != true {
		t.Fatalf("metricsz = %v, want journal_readonly true", mb)
	}
	if n, ok := mb["read_only_refused"].(float64); !ok || n < 1 {
		t.Fatalf("metricsz read_only_refused = %v, want >= 1", mb["read_only_refused"])
	}

	// Space returns. The next submission's pre-flight probe clears the
	// mode and the submit goes through — recovery without restart.
	fa.SetFull(false)
	resp = postJSON(t, ts.URL+"/v1/simulate", strings.Replace(roSim, `"seed":21`, `"seed":24`, 1))
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit after recovery: %d %s", resp.StatusCode, readBody(t, resp))
	}
	readBody(t, resp)
	if j.ReadOnly() {
		t.Fatal("journal still read-only after space returned")
	}
	hb = getJSON(t, ts.URL+"/healthz")
	if hb["journal_readonly"] == true {
		t.Fatal("healthz still advertises read-only after recovery")
	}
}

func TestDiskFullRefusesWholeBatch(t *testing.T) {
	fa, j, ts := newReadOnlyStack(t)
	fa.SetFull(true)
	// Trip the mode (the first append discovers the full disk).
	resp := postJSON(t, ts.URL+"/v1/simulate", roSim)
	readBody(t, resp)
	if !j.ReadOnly() {
		t.Fatal("journal not read-only after ENOSPC")
	}
	batch := `{"items":[{"kind":"simulate","config":` + roSim + `}]}`
	resp = postJSON(t, ts.URL+"/v1/jobs:batch", batch)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("batch on read-only node: %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), classReadOnly) {
		t.Fatalf("batch refusal not typed read_only: %s", body)
	}
}

// getJSON fetches url and decodes the body into a generic map.
func getJSON(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	return m
}
