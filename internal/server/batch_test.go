package server

// POST /v1/jobs:batch tests: mixed per-item outcomes, the single
// journal group commit for the accepted set, partial deadline-priced
// shedding (per-item queue_full entries, accepted subset answering
// byte-identically to standalone submits), cluster split-by-owner
// forwarding, and the request-shape limits.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"starperf/internal/fsx"
	"starperf/internal/journal"
)

// batchBody marshals items into a POST /v1/jobs:batch body.
func batchBody(t *testing.T, items ...string) string {
	t.Helper()
	return `{"items":[` + strings.Join(items, ",") + `]}`
}

// postBatch posts a batch and decodes the 200 response.
func postBatch(t *testing.T, base, body string) batchResponse {
	t.Helper()
	resp := postJSON(t, base+"/v1/jobs:batch", body)
	raw := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, raw)
	}
	var br batchResponse
	if err := json.Unmarshal(raw, &br); err != nil {
		t.Fatalf("batch body %s: %v", raw, err)
	}
	return br
}

// TestBatchMixedOutcomes: one batch carrying a valid predict, a valid
// simulate, an unknown kind and a malformed config answers all four
// positionally — errors inline as envelope objects, acceptances with
// the ids their standalone submissions would have gotten.
func TestBatchMixedOutcomes(t *testing.T) {
	j, _, err := journal.Open(journal.Options{Dir: t.TempDir(), FS: fsx.OS{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = j.Close() }) // runs after the server's drain: cleanups are LIFO
	_, ts := newTestServer(t, Config{Workers: 2, Journal: j})

	br := postBatch(t, ts.URL, batchBody(t,
		`{"kind":"predict","config":`+predictS4+`}`,
		`{"kind":"simulate","config":`+recoverySim+`}`,
		`{"kind":"divine","config":{}}`,
		`{"kind":"predict","config":{"vee":4}}`,
	))
	if len(br.Items) != 4 {
		t.Fatalf("%d items, want 4", len(br.Items))
	}
	if br.Items[0].ID != predictID(t) || br.Items[0].Error != nil {
		t.Fatalf("predict item %+v", br.Items[0])
	}
	if br.Items[1].ID != simulateID(t) || br.Items[1].Error != nil {
		t.Fatalf("simulate item %+v", br.Items[1])
	}
	for _, i := range []int{2, 3} {
		e := br.Items[i].Error
		if e == nil || e.Class != "invalid_config" {
			t.Fatalf("item %d = %+v, want invalid_config error", i, br.Items[i])
		}
	}

	// Both accepted jobs complete and answer byte-identically to
	// standalone submissions on a pristine server.
	if got := jobResultBody(t, ts.URL, br.Items[0].ID); string(got) != string(controlPredict(t)) {
		t.Fatalf("batched predict differs from control: %s", got)
	}
	if got := jobResultBody(t, ts.URL, br.Items[1].ID); string(got) != string(controlSimulate(t)) {
		t.Fatalf("batched simulate differs from control: %s", got)
	}

	// Resubmitting the same batch hits the cache: done immediately, no
	// new submissions.
	br2 := postBatch(t, ts.URL, batchBody(t, `{"kind":"predict","config":`+predictS4+`}`))
	if br2.Items[0].Status != "done" || br2.Items[0].ID != predictID(t) {
		t.Fatalf("cached resubmit %+v", br2.Items[0])
	}

	// /metricsz carries the batch counters.
	mresp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	var mz Metricsz
	if err := json.Unmarshal(readBody(t, mresp), &mz); err != nil {
		t.Fatal(err)
	}
	if mz.Batch.Batches != 2 || mz.Batch.Items != 5 || mz.Batch.MaxItems != 4 {
		t.Fatalf("batch stats %+v", mz.Batch)
	}
}

// TestBatchSingleJournalCommit: the accepted set of one batch becomes
// ONE journal commit — the group's accepted records all land in a
// single write+fsync, visible as a MaxBatch at least the batch size.
func TestBatchSingleJournalCommit(t *testing.T) {
	j, _, err := journal.Open(journal.Options{Dir: t.TempDir(), FS: fsx.OS{}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = j.Close() }) // runs after the server's drain: cleanups are LIFO
	_, ts := newTestServer(t, Config{Workers: 1, Journal: j})

	// Six distinct predicts (rate varies) — six accepted records.
	items := make([]string, 6)
	ids := make([]string, 6)
	for i := range items {
		cfg := fmt.Sprintf(`{"topo":{"kind":"star","n":4},"v":4,"msg_len":16,"rate":0.00%d}`, i+1)
		items[i] = `{"kind":"predict","config":` + cfg + `}`
		var req PredictRequest
		if err := json.Unmarshal([]byte(cfg), &req); err != nil {
			t.Fatal(err)
		}
		if ids[i], err = req.withDefaults().hash(); err != nil {
			t.Fatal(err)
		}
	}
	br := postBatch(t, ts.URL, batchBody(t, items...))
	for i, it := range br.Items {
		if it.Error != nil || it.ID != ids[i] {
			t.Fatalf("item %d = %+v, want id %s", i, it, ids[i])
		}
	}
	st := j.Stats()
	if st.MaxBatch < 6 {
		t.Fatalf("journal MaxBatch %d after 6-item batch, want ≥6 (accepted set split across commits)", st.MaxBatch)
	}
	for _, id := range ids {
		jobResultBody(t, ts.URL, id)
	}
}

// TestBatchAdmissionPartialShed (satellite 4): against a priced-out
// backlog, the expensive item gets the per-item queue_full entry — the
// 429 a standalone submit would have received, retry hint included —
// while a cheap LATER item still clears the same budget (acceptance is
// per item, not prefix-only) and completes byte-identically to its
// standalone control.
func TestBatchAdmissionPartialShed(t *testing.T) {
	want := controlSimulate(t)
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 64})
	// Backlog: 2 blocked untyped jobs priced at the all-kinds fallback
	// mean — (2s predict + 1ms simulate)/2 ≈ 1s each ⇒ est ≈ 2s.
	gate := primeBacklog(t, s, "predict", 2*time.Second, 2)
	released := false
	defer func() {
		if !released {
			close(gate)
		}
	}()
	s.pool.ObserveExec("simulate", time.Millisecond)

	// Deadline 3.5s: predict (est 2s + cost 2s = 4s) is priced out,
	// simulate (2s + 1ms) fits.
	req, err := http.NewRequest("POST", ts.URL+"/v1/jobs:batch", strings.NewReader(batchBody(t,
		`{"kind":"predict","config":`+predictS4+`}`,
		`{"kind":"simulate","config":`+recoverySim+`}`,
	)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(deadlineHeader, "3500ms")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, raw)
	}
	var br batchResponse
	if err := json.Unmarshal(raw, &br); err != nil {
		t.Fatal(err)
	}
	shed := br.Items[0].Error
	if shed == nil || shed.Class != "queue_full" {
		t.Fatalf("priced-out item %+v, want queue_full", br.Items[0])
	}
	// The retry hint reflects the backlog the item saw: ≈4s, surely
	// past the 3.5s deadline it missed and under a minute.
	if shed.RetryAfterMS < 3500 || shed.RetryAfterMS > 60000 {
		t.Fatalf("shed retry_after_ms %d, want ≈4000", shed.RetryAfterMS)
	}
	if br.Items[1].Error != nil || br.Items[1].ID != simulateID(t) {
		t.Fatalf("cheap later item %+v, want accepted", br.Items[1])
	}

	// The accepted item completes byte-identically to its standalone
	// control once the gate opens; the shed is counted.
	close(gate)
	released = true
	if got := jobResultBody(t, ts.URL, br.Items[1].ID); string(got) != string(want) {
		t.Fatalf("admitted subset differs from control:\n %s\n %s", got, want)
	}
	if s.batchShed.Load() != 1 || s.shed.Load() != 1 {
		t.Fatalf("shed counters batch=%d total=%d, want 1/1", s.batchShed.Load(), s.shed.Load())
	}
}

// TestClusterBatchSplitsByOwner: a batch posted to one member is split
// by ring owner — peer-owned items forwarded as sub-batches, replies
// merged by index — and every item answers byte-identically to its
// control through a cross-node poll.
func TestClusterBatchSplitsByOwner(t *testing.T) {
	wantP, wantS := controlPredict(t), controlSimulate(t)
	tc := newTestCluster(t, 3, nil)
	pOwner := tc.order(predictID(t))[0]
	sOwner := tc.order(simulateID(t))[0]

	// Post to a member owning at most one of the two ids (with 3
	// members and 2 ids there is always one).
	entry := tc.addrs[0]
	for _, a := range tc.addrs {
		if a != pOwner || a != sOwner {
			entry = a
			break
		}
	}
	br := postBatch(t, tc.url(entry), batchBody(t,
		`{"kind":"predict","config":`+predictS4+`}`,
		`{"kind":"simulate","config":`+recoverySim+`}`,
	))
	if br.Items[0].Error != nil || br.Items[0].ID != predictID(t) {
		t.Fatalf("predict item %+v", br.Items[0])
	}
	if br.Items[1].Error != nil || br.Items[1].ID != simulateID(t) {
		t.Fatalf("simulate item %+v", br.Items[1])
	}

	// Each item ran (or is running) on its ring owner; the entry node
	// forwarded what it did not own.
	var wantForwarded uint64
	for _, owner := range []string{pOwner, sOwner} {
		if owner != entry {
			wantForwarded++
		}
	}
	if got := tc.srvs[entry].cluster.forwarded.Load(); got != wantForwarded {
		t.Fatalf("entry forwarded %d items, want %d", got, wantForwarded)
	}

	// Both results poll back from the entry node byte-identical to the
	// single-node controls.
	if got := jobResultBody(t, tc.url(entry), predictID(t)); string(got) != string(wantP) {
		t.Fatalf("cluster predict differs from control: %s", got)
	}
	if got := jobResultBody(t, tc.url(entry), simulateID(t)); string(got) != string(wantS) {
		t.Fatalf("cluster simulate differs from control: %s", got)
	}
}

// TestClusterBatchFallsBackWhenOwnerDies: killing a peer owner does
// not fail its sub-batch — the entry node computes those items locally
// and the batch still completes against control bytes.
func TestClusterBatchFallsBackWhenOwnerDies(t *testing.T) {
	want := controlPredict(t)
	tc := newTestCluster(t, 3, nil)
	order := tc.order(predictID(t))
	owner, entry := order[0], order[1]
	tc.kill(owner)

	br := postBatch(t, tc.url(entry), batchBody(t,
		`{"kind":"predict","config":`+predictS4+`}`,
	))
	if br.Items[0].Error != nil || br.Items[0].ID != predictID(t) {
		t.Fatalf("item after owner death %+v", br.Items[0])
	}
	if got := jobResultBody(t, tc.url(entry), predictID(t)); string(got) != string(want) {
		t.Fatalf("fallback result differs from control: %s", got)
	}
	cn := tc.srvs[entry].cluster
	if cn.localFallbacks.Load() == 0 {
		t.Fatal("owner death left no local-fallback trace")
	}
}

// TestBatchShapeLimits: an empty batch and an oversized batch are
// whole-request errors, not per-item ones.
func TestBatchShapeLimits(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	resp := postJSON(t, ts.URL+"/v1/jobs:batch", `{"items":[]}`)
	body := readBody(t, resp)
	if resp.StatusCode != 400 || !strings.Contains(string(body), "invalid_config") {
		t.Fatalf("empty batch: %d %s", resp.StatusCode, body)
	}

	items := make([]string, maxBatchItems+1)
	for i := range items {
		items[i] = `{"kind":"predict","config":` + predictS4 + `}`
	}
	resp = postJSON(t, ts.URL+"/v1/jobs:batch", batchBody(t, items...))
	body = readBody(t, resp)
	if resp.StatusCode != 400 || !strings.Contains(string(body), "invalid_config") {
		t.Fatalf("oversized batch: %d %s", resp.StatusCode, body)
	}
}
