package server

// In-process cluster tests: N real servers on loopback listeners,
// each with its own pool, cache and ring built from the same member
// list. The listeners are opened first (port 0) so the addresses are
// known before the rings exist — the same chicken-and-egg order
// scripts/cluster_chaos.sh resolves by choosing ports up front.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"starperf/internal/cache"
	"starperf/internal/cluster"
	"starperf/internal/fsx"
	"starperf/internal/journal"
)

// testCluster is an in-process cluster keyed by member address.
type testCluster struct {
	t      *testing.T
	addrs  []string
	srvs   map[string]*Server
	tss    map[string]*httptest.Server
	killed map[string]bool
}

// newTestCluster starts n cluster members. mut, when non-nil, adjusts
// each member's Config before New (inject a journal, shrink the
// pool, ...).
func newTestCluster(t *testing.T, n int, mut func(addr string, cfg *Config)) *testCluster {
	t.Helper()
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		addrs[i] = l.Addr().String()
	}
	tc := &testCluster{
		t:      t,
		addrs:  addrs,
		srvs:   make(map[string]*Server, n),
		tss:    make(map[string]*httptest.Server, n),
		killed: make(map[string]bool, n),
	}
	for i, addr := range addrs {
		ring, err := cluster.New(cluster.Config{Self: addr, Peers: addrs})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Workers: 2, Cache: cache.Config{Dir: t.TempDir()}, Ring: ring}
		if mut != nil {
			mut(addr, &cfg)
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := &httptest.Server{Listener: listeners[i], Config: &http.Server{Handler: s.Handler()}}
		ts.Start()
		tc.srvs[addr] = s
		tc.tss[addr] = ts
	}
	t.Cleanup(func() {
		for _, addr := range tc.addrs {
			if !tc.killed[addr] {
				tc.tss[addr].Close()
			}
			// A killed node lost its listener, not its pool: drain it
			// too before its cache directory is removed.
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			_ = tc.srvs[addr].Close(ctx)
			cancel()
		}
	})
	return tc
}

func (tc *testCluster) url(addr string) string { return "http://" + addr }

// kill SIGKILLs a member as far as HTTP is concerned: the listener
// dies mid-flight, nothing drains, the pool is abandoned.
func (tc *testCluster) kill(addr string) {
	tc.t.Helper()
	tc.tss[addr].Close()
	tc.killed[addr] = true
}

// order returns a job id's cluster-wide preference order (identical
// on every member, so any ring serves).
func (tc *testCluster) order(id string) []string {
	return tc.srvs[tc.addrs[0]].cluster.ring.Successors(id)
}

// predictID hashes predictS4 the way the handler does.
func predictID(t *testing.T) string {
	t.Helper()
	var req PredictRequest
	if err := json.Unmarshal([]byte(predictS4), &req); err != nil {
		t.Fatal(err)
	}
	id, err := req.withDefaults().hash()
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// simulateID hashes recoverySim the way the handler does.
func simulateID(t *testing.T) string {
	t.Helper()
	var req SimulateRequest
	if err := json.Unmarshal([]byte(recoverySim), &req); err != nil {
		t.Fatal(err)
	}
	id, err := req.withDefaults().hash()
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// controlPredict computes predictS4 on a pristine single-node server:
// the byte-identical reference every cluster answer must match.
func controlPredict(t *testing.T) []byte {
	t.Helper()
	_, ts := newTestServer(t, Config{Workers: 2})
	resp := postJSON(t, ts.URL+"/v1/predict", predictS4)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("control predict: %d", resp.StatusCode)
	}
	return readBody(t, resp)
}

// controlSimulate computes recoverySim on a pristine single-node
// server.
func controlSimulate(t *testing.T) []byte {
	t.Helper()
	_, ts := newTestServer(t, Config{Workers: 2})
	resp := postJSON(t, ts.URL+"/v1/simulate", recoverySim)
	var jb jobBody
	if err := json.Unmarshal(readBody(t, resp), &jb); err != nil {
		t.Fatal(err)
	}
	return jobResultBody(t, ts.URL, jb.ID)
}

// TestClusterForwardsToOwner: a compute request sent to a non-owner
// is relayed to the ring owner, answers byte-identically to a
// single-node control, and names the owner in X-Starperf-Node.
func TestClusterForwardsToOwner(t *testing.T) {
	want := controlPredict(t)
	tc := newTestCluster(t, 3, nil)
	order := tc.order(predictID(t))
	owner, nonOwner := order[0], order[1]

	// Direct to the owner first: served locally, counted as owned.
	resp := postJSON(t, tc.url(owner)+"/v1/predict", predictS4)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK || string(body) != string(want) {
		t.Fatalf("owner predict: %d %s, want control bytes", resp.StatusCode, body)
	}
	if got := tc.srvs[owner].cluster.owned.Load(); got != 1 {
		t.Fatalf("owner owned counter = %d, want 1", got)
	}

	// Via a non-owner: relayed to the owner, byte-identical, and the
	// response names the node that served it.
	resp = postJSON(t, tc.url(nonOwner)+"/v1/predict", predictS4)
	body = readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded predict: %d %s", resp.StatusCode, body)
	}
	if string(body) != string(want) {
		t.Fatalf("forwarded result differs from control:\n %s\n %s", body, want)
	}
	if got := resp.Header.Get(nodeHeader); got != owner {
		t.Fatalf("served by %q, want owner %q", got, owner)
	}
	cn := tc.srvs[nonOwner].cluster
	if cn.forwarded.Load() != 1 || cn.failovers.Load() != 0 || cn.localFallbacks.Load() != 0 {
		t.Fatalf("non-owner counters: forwarded=%d failovers=%d fallbacks=%d, want 1/0/0",
			cn.forwarded.Load(), cn.failovers.Load(), cn.localFallbacks.Load())
	}

	// /metricsz and /healthz surface the ring.
	resp, err := http.Get(tc.url(owner) + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	var mz Metricsz
	if err := json.Unmarshal(readBody(t, resp), &mz); err != nil {
		t.Fatal(err)
	}
	if mz.Cluster == nil || mz.Cluster.Self != owner || len(mz.Cluster.Members) != 3 {
		t.Fatalf("metricsz cluster = %+v, want self=%s with 3 members", mz.Cluster, owner)
	}
	resp, err = http.Get(tc.url(owner) + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hb healthBody
	if err := json.Unmarshal(readBody(t, resp), &hb); err != nil {
		t.Fatal(err)
	}
	if !hb.OK || hb.Cluster == nil || len(hb.Cluster.Members) != 3 {
		t.Fatalf("healthz = %+v, want ok with 3 ring members", hb)
	}

	// /v1/ring/{id} agrees with the in-process rings.
	resp, err = http.Get(tc.url(nonOwner) + "/v1/ring/" + predictID(t))
	if err != nil {
		t.Fatal(err)
	}
	var rb ringBody
	if err := json.Unmarshal(readBody(t, resp), &rb); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rb.Nodes) != fmt.Sprint(order) {
		t.Fatalf("/v1/ring order %v, want %v", rb.Nodes, order)
	}
}

// TestClusterFailsOverWhenOwnerDies pins the acceptance criterion: a
// fully dead owner never causes a client-visible failure for jobs it
// owns. Both kinds of survivor answer — the next successor computes
// locally, any other member fails over to that successor — and the
// counters show the reroute.
func TestClusterFailsOverWhenOwnerDies(t *testing.T) {
	want := controlPredict(t)
	tc := newTestCluster(t, 3, nil)
	order := tc.order(predictID(t))
	owner, next, last := order[0], order[1], order[2]
	tc.kill(owner)

	// The first successor: forward to the dead owner fails, its own
	// turn comes, it computes locally.
	resp := postJSON(t, tc.url(next)+"/v1/predict", predictS4)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK || string(body) != string(want) {
		t.Fatalf("successor answer: %d %s, want control bytes", resp.StatusCode, body)
	}
	cn := tc.srvs[next].cluster
	if cn.failovers.Load() == 0 || cn.localFallbacks.Load() != 1 {
		t.Fatalf("successor counters: failovers=%d fallbacks=%d, want ≥1 and 1",
			cn.failovers.Load(), cn.localFallbacks.Load())
	}

	// The furthest member: dead owner, then the successor (which now
	// holds the result) answers its forward.
	resp = postJSON(t, tc.url(last)+"/v1/predict", predictS4)
	body = readBody(t, resp)
	if resp.StatusCode != http.StatusOK || string(body) != string(want) {
		t.Fatalf("far member answer: %d %s, want control bytes", resp.StatusCode, body)
	}
	cn = tc.srvs[last].cluster
	if cn.failovers.Load() == 0 || cn.forwarded.Load() != 1 {
		t.Fatalf("far member counters: failovers=%d forwarded=%d, want ≥1 and 1",
			cn.failovers.Load(), cn.forwarded.Load())
	}
	if got := resp.Header.Get(nodeHeader); got != next {
		t.Fatalf("served by %q, want failover target %q", got, next)
	}
}

// TestClusterJobLookupFillsPeerCache: polling a job on a node that
// never saw it relays the owner's answer and fills the local cache
// (verified against the advertised content sum), so the next poll is
// a local hit.
func TestClusterJobLookupFillsPeerCache(t *testing.T) {
	want := controlSimulate(t)
	tc := newTestCluster(t, 3, nil)
	id := simulateID(t)
	owner, other := tc.order(id)[0], tc.order(id)[1]

	resp := postJSON(t, tc.url(owner)+"/v1/simulate", recoverySim)
	var jb jobBody
	if err := json.Unmarshal(readBody(t, resp), &jb); err != nil {
		t.Fatal(err)
	}
	if jb.ID != id {
		t.Fatalf("submitted id %s, want %s", jb.ID, id)
	}
	got := jobResultBody(t, tc.url(other), id)
	if string(got) != string(want) {
		t.Fatalf("cross-node poll differs from control:\n %s\n %s", got, want)
	}
	cn := tc.srvs[other].cluster
	if cn.peerFills.Load() == 0 {
		t.Fatal("cross-node poll did not fill the peer cache")
	}
	if !tc.srvs[other].cache.Contains(id) {
		t.Fatal("filled result missing from the local cache")
	}
}

// TestForwardedRequestNeverReforwards: a request that already crossed
// one hop is served locally even by a node that does not own it — the
// relay depth is one by construction, so stale rings cannot loop.
func TestForwardedRequestNeverReforwards(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	order := tc.order(predictID(t))
	nonOwner := order[1]

	req, err := http.NewRequest(http.MethodPost, tc.url(nonOwner)+"/v1/predict",
		bytes.NewReader([]byte(predictS4)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(forwardedHeader, "test")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if body := readBody(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded-marked predict: %d %s", resp.StatusCode, body)
	}
	cn := tc.srvs[nonOwner].cluster
	if cn.forwarded.Load() != 0 || cn.failovers.Load() != 0 {
		t.Fatalf("marked request re-forwarded: forwarded=%d failovers=%d",
			cn.forwarded.Load(), cn.failovers.Load())
	}
}

// TestPeerFillRejectsCorruptBytes: a done envelope whose result bytes
// do not hash to the advertised sum is never stored and never served;
// a matching one fills.
func TestPeerFillRejectsCorruptBytes(t *testing.T) {
	id := "sha256:abcd" // any id shape works; placement is irrelevant here
	result := []byte(`{"latency":42}`)
	serve := func(sum string) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set(resultSumHeader, sum)
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(jobBody{ID: id, Status: "done", Result: result})
		}))
	}
	peerNetTo := func(ts *httptest.Server) *peerNet {
		addr := ts.Listener.Addr().String()
		ring, err := cluster.New(cluster.Config{Self: "self.invalid:1", Peers: []string{addr}})
		if err != nil {
			t.Fatal(err)
		}
		return newPeerNet(Config{Ring: ring})
	}

	liar := serve("sha256:0000000000000000000000000000000000000000000000000000000000000000")
	defer liar.Close()
	cn := peerNetTo(liar)
	if _, ok := cn.fill(context.Background(), id); ok {
		t.Fatal("fill accepted bytes that do not match the advertised sum")
	}
	if cn.peerFillCorrupt.Load() == 0 {
		t.Fatal("corrupt fill not counted")
	}

	honest := serve(resultSum(result))
	defer honest.Close()
	cn = peerNetTo(honest)
	body, ok := cn.fill(context.Background(), id)
	if !ok || string(body) != string(result) {
		t.Fatalf("verified fill = %q, %v; want the peer's result", body, ok)
	}
	if cn.peerFills.Load() != 1 {
		t.Fatalf("peerFills = %d, want 1", cn.peerFills.Load())
	}
}

// TestClusterChaosDrillOwnerKilledMidJob is the in-process cluster
// chaos drill (scripts/cluster_chaos.sh is its out-of-process twin):
// a 3-node journaled ring accepts a simulate on its owner, the owner
// is killed before its wedged pool can run the job, survivors still
// answer the job byte-identically (failover), and the restarted owner
// replays its journal and serves the same bytes. One survivor's
// journal runs over fsx.Faulty with every fsync failing — a flaky
// disk degrades durability accounting, never answers.
func TestClusterChaosDrillOwnerKilledMidJob(t *testing.T) {
	want := controlSimulate(t)
	id := simulateID(t)

	jdirs := make(map[string]string)
	gates := make(map[string]chan struct{})
	var flaky *fsx.Faulty
	tc := newTestCluster(t, 3, func(addr string, cfg *Config) {
		jdirs[addr] = t.TempDir()
		opts := journal.Options{Dir: jdirs[addr]}
		if cfg.Ring.Successors(id)[1] == addr {
			// The first successor — the member that will compute the
			// dead owner's job — journals onto a disk where every write
			// fails with a torn prefix. Durability degrades (the journal
			// counts append errors); answers must not.
			flaky = fsx.NewFaulty(fsx.OS{}, fsx.FaultPlan{Seed: 7, PWrite: 1, ShortWrites: true})
			opts.FS = flaky
		}
		j, _, err := journal.Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = j.Close() })
		cfg.Journal = j
		cfg.Workers = 1
	})
	order := tc.order(id)
	owner := order[0]

	// Wedge every pool so the accepted job cannot finish before the
	// kill; survivors are released afterwards.
	for _, addr := range tc.addrs {
		gate := make(chan struct{})
		gates[addr] = gate
		if _, err := tc.srvs[addr].Pool().Submit("sha256:wedge-"+addr, func(ctx context.Context) (any, error) {
			select {
			case <-gate:
			case <-ctx.Done():
			}
			return nil, nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	resp := postJSON(t, tc.url(owner)+"/v1/simulate", recoverySim)
	var accepted jobBody
	if err := json.Unmarshal(readBody(t, resp), &accepted); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted || accepted.ID != id {
		t.Fatalf("owner submit: %d %+v", resp.StatusCode, accepted)
	}
	tc.kill(owner)
	for addr, gate := range gates {
		if addr != owner {
			close(gate)
		}
	}

	// Acceptance criterion: the dead owner's job is still answerable.
	// A survivor takes the resubmission (failover path), computes, and
	// the result matches the single-node control byte for byte.
	survivor := order[1]
	resp = postJSON(t, tc.url(survivor)+"/v1/simulate", recoverySim)
	var resub jobBody
	if err := json.Unmarshal(readBody(t, resp), &resub); err != nil {
		t.Fatal(err)
	}
	if resub.ID != id {
		t.Fatalf("resubmitted id %s, want %s", resub.ID, id)
	}
	got := jobResultBody(t, tc.url(survivor), id)
	if string(got) != string(want) {
		t.Fatalf("survivor result differs from control:\n %s\n %s", got, want)
	}
	if cn := tc.srvs[survivor].cluster; cn.failovers.Load() == 0 {
		t.Fatal("survivor answered without recording the reroute")
	}

	// The other survivor reads the same bytes through a cross-node
	// poll — on a journal whose disk injected real fsync failures.
	other := order[2]
	if string(jobResultBody(t, tc.url(other), id)) != string(want) {
		t.Fatal("second survivor's poll differs from control")
	}
	if flaky.Injected() == 0 {
		t.Fatal("fault plan injected nothing: the fsx.Faulty seam was not exercised")
	}

	// Restart the owner: same journal, fresh server. The interrupted
	// simulate replays, recomputes, and serves the control bytes.
	j2, rec, err := journal.Open(journal.Options{Dir: jdirs[owner]})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	found := false
	for _, r := range rec.Incomplete {
		if r.ID == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("killed owner's journal lost the accepted job: %+v", rec.Incomplete)
	}
	ring, err := cluster.New(cluster.Config{Self: owner, Peers: tc.addrs})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(Config{Workers: 2, Cache: cache.Config{Dir: t.TempDir()}, Journal: j2, Ring: ring})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s2.Close(ctx)
	}()
	recov := s2.Recover(rec)
	if recov.Requeued == 0 {
		t.Fatalf("recovery requeued nothing: %+v", recov)
	}
	if string(jobResultBody(t, ts2.URL, id)) != string(want) {
		t.Fatal("restarted owner's recovered result differs from control")
	}
}
