package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

const boundsS4 = `{"topo":{"kind":"star","n":4},"v":6,"msg_len":32,"rate":0.004}`

// TestBoundsEndToEnd drives the synchronous /v1/bounds path: a cold
// request (miss), the identical request again (hit, byte-identical),
// an unboundable operating point as a valid 200 body, and the wire
// error contract for invalid configs.
func TestBoundsEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	resp := postJSON(t, ts.URL+"/v1/bounds", boundsS4)
	first := readBody(t, resp)
	if resp.StatusCode != 200 {
		t.Fatalf("bounds: %d %s", resp.StatusCode, first)
	}
	if got := resp.Header.Get("X-Starperf-Cache"); got != "miss" {
		t.Fatalf("cold bounds cache header %q, want miss", got)
	}
	id := resp.Header.Get("X-Starperf-Job")
	if !strings.HasPrefix(id, "sha256:") {
		t.Fatalf("job header %q not a content hash", id)
	}
	var res BoundsResult
	if err := json.Unmarshal(first, &res); err != nil {
		t.Fatal(err)
	}
	if res.Unboundable || !(res.WorstBound > 0) || len(res.Classes) == 0 {
		t.Fatalf("implausible bounds result: %+v", res)
	}
	if res.Classes[len(res.Classes)-1].Bound != res.WorstBound {
		t.Fatalf("worst bound %v != deepest class %v", res.WorstBound, res.Classes)
	}

	// Identical request → cache hit, byte-identical body, same id.
	resp = postJSON(t, ts.URL+"/v1/bounds", boundsS4)
	second := readBody(t, resp)
	if got := resp.Header.Get("X-Starperf-Cache"); got != "hit" {
		t.Fatalf("warm bounds cache header %q, want hit", got)
	}
	if resp.Header.Get("X-Starperf-Job") != id {
		t.Fatal("same request produced a different job id")
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("cache hit not byte-identical:\n %s\n %s", first, second)
	}

	// An unboundable operating point is a valid 200, not an error —
	// mirroring /v1/predict's saturated:true.
	resp = postJSON(t, ts.URL+"/v1/bounds",
		`{"topo":{"kind":"star","n":4},"v":6,"msg_len":32,"rate":0.03}`)
	body := readBody(t, resp)
	if resp.StatusCode != 200 {
		t.Fatalf("unboundable point: %d %s", resp.StatusCode, body)
	}
	var ub BoundsResult
	if err := json.Unmarshal(body, &ub); err != nil {
		t.Fatal(err)
	}
	if !ub.Unboundable || ub.WorstBound != 0 {
		t.Fatalf("unboundable point: %+v, want unboundable:true with zero bound", ub)
	}

	// Invalid configs are 400 invalid_config; typos are strict-decode
	// 400s.
	resp = postJSON(t, ts.URL+"/v1/bounds",
		`{"topo":{"kind":"ring","n":4},"v":6,"msg_len":32,"rate":0.004}`)
	body = readBody(t, resp)
	if resp.StatusCode != 400 || !bytes.Contains(body, []byte("invalid_config")) {
		t.Fatalf("bad topology: %d %s", resp.StatusCode, body)
	}
	resp = postJSON(t, ts.URL+"/v1/bounds", `{"topo":{"kind":"star","n":4},"vee":6}`)
	body = readBody(t, resp)
	if resp.StatusCode != 400 || !bytes.Contains(body, []byte("invalid_config")) {
		t.Fatalf("unknown field: %d %s", resp.StatusCode, body)
	}
}

// TestBoundsGoldenWire pins /v1/bounds's canonical job hash and the
// defaults-normalisation invariant: explicit defaults must not mint a
// different job than omitted ones. A changed hash here is a
// cache-compatibility break — bump jobs.SchemaVersion instead.
func TestBoundsGoldenWire(t *testing.T) {
	var req BoundsRequest
	if err := json.Unmarshal([]byte(boundsS4), &req); err != nil {
		t.Fatal(err)
	}
	h, err := kindHash("bounds", req.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	const want = "sha256:53e5779ad55c0ee2b7a6fa10227ae1c1a6789175dbff3130dd6851e08e3089e9"
	if h != want {
		t.Errorf("bounds hash = %q, want %q", h, want)
	}
	explicit := BoundsRequest{
		Topo: TopoSpec{Kind: "star", N: 4}, Routing: "enbc",
		V: 6, MsgLen: 32, Rate: 0.004, BufCap: 2, LinkBW: 1,
	}
	he, err := kindHash("bounds", explicit.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if he != h {
		t.Fatalf("explicit defaults hash %q != omitted defaults %q", he, h)
	}
}

// controlBounds computes boundsS4 on a pristine single-node server:
// the byte-identical reference every cluster answer must match.
func controlBounds(t *testing.T) []byte {
	t.Helper()
	_, ts := newTestServer(t, Config{Workers: 2})
	resp := postJSON(t, ts.URL+"/v1/bounds", boundsS4)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("control bounds: %d", resp.StatusCode)
	}
	return readBody(t, resp)
}

// boundsID hashes boundsS4 the way the handler does.
func boundsID(t *testing.T) string {
	t.Helper()
	var req BoundsRequest
	if err := json.Unmarshal([]byte(boundsS4), &req); err != nil {
		t.Fatal(err)
	}
	id, err := kindHash("bounds", req.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestClusterBoundsForwardRelayVerbatim: a /v1/bounds request sent to
// a non-owner is relayed to the ring owner and the relayed body is
// byte-identical to a single-node control — the forward path never
// re-encodes the result.
func TestClusterBoundsForwardRelayVerbatim(t *testing.T) {
	want := controlBounds(t)
	tc := newTestCluster(t, 3, nil)
	order := tc.order(boundsID(t))
	owner, nonOwner := order[0], order[1]

	resp := postJSON(t, tc.url(nonOwner)+"/v1/bounds", boundsS4)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded bounds: %d %s", resp.StatusCode, body)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("forwarded result differs from control:\n %s\n %s", body, want)
	}
	if got := resp.Header.Get(nodeHeader); got != owner {
		t.Fatalf("served by %q, want owner %q", got, owner)
	}
	if got := tc.srvs[nonOwner].cluster.forwarded.Load(); got != 1 {
		t.Fatalf("non-owner forwarded counter = %d, want 1", got)
	}

	// The cached result now lives on the owner; the same request via
	// the non-owner again is still byte-identical (relayed hit).
	resp = postJSON(t, tc.url(nonOwner)+"/v1/bounds", boundsS4)
	body = readBody(t, resp)
	if !bytes.Equal(body, want) {
		t.Fatalf("relayed hit differs from control:\n %s\n %s", body, want)
	}
}
