package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"starperf/internal/cache"
	"starperf/internal/cluster"
	"starperf/internal/jobs"
	"starperf/internal/journal"
	"starperf/internal/model"
	"starperf/internal/routing"
	"starperf/internal/server"
	"starperf/internal/stargraph"
)

// A replay node serves the starperfd routes a workload uses from the
// benchmark's own process, calling each layer's public entry point in
// the order the server's handlers call it — strict JSON decode into the
// exported request types, validation (model.NewStarPaths), jobs.Hash,
// cache.Get, cluster.Ring.Owner and a forward, jobs.Pool.DoMeta or
// SubmitMeta on a pool with a real journal, the engine, cache.Put — and
// records a span around every call. The traced run drives replay nodes
// with the same generator and stream as the daemons; their bodies go
// through the same output checks, so a replay that drifted from the
// server would fail its run.
type replayNode struct {
	self  string
	ring  *cluster.Ring
	cache *cache.Cache
	pool  *jobs.Pool
	jnl   *journal.Journal
	tr    *tracer
	peer  *http.Client
	srv   *http.Server

	mu           sync.Mutex
	modelIters   int
	modelEvals   int
	boundsIters  int
	boundsEvals  int
	simCycles    int64 // cycles of traced simulate jobs
	journalStart journalSnap
}

type journalSnap struct{ appends, commits, records, saved uint64 }

type replayFleet struct {
	nodes []*replayNode
	urls  []string
	addrs []string
}

func startReplay(dir string, nodes, workers int, tr *tracer) (*replayFleet, error) {
	f := &replayFleet{}
	var lns []net.Listener
	for i := 0; i < nodes; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, err
		}
		lns = append(lns, ln)
		f.addrs = append(f.addrs, ln.Addr().String())
		f.urls = append(f.urls, "http://"+ln.Addr().String())
	}
	for i, ln := range lns {
		n := &replayNode{self: f.addrs[i], tr: tr, peer: &http.Client{Timeout: 30 * time.Second}}
		var err error
		if nodes > 1 {
			var peers []string
			for j, a := range f.addrs {
				if j != i {
					peers = append(peers, a)
				}
			}
			n.ring, err = cluster.New(cluster.Config{Self: n.self, Peers: peers})
		}
		if err == nil {
			n.cache, err = cache.New(cache.Config{MaxBytes: 64 << 20})
		}
		if err == nil {
			n.jnl, _, err = journal.Open(journal.Options{Dir: filepath.Join(dir, "replay-journal"+strconv.Itoa(i))})
		}
		if err != nil {
			ln.Close()
			f.stop()
			return nil, err
		}
		n.pool = jobs.NewPool(jobs.PoolConfig{Workers: workers, QueueDepth: 256, Journal: n.jnl})
		mux := http.NewServeMux()
		mux.HandleFunc("POST /v1/predict", n.handleSync)
		mux.HandleFunc("POST /v1/bounds", n.handleSync)
		mux.HandleFunc("POST /v1/simulate", n.handleSimulate)
		mux.HandleFunc("POST /v1/jobs:batch", n.handleBatch)
		mux.HandleFunc("GET /v1/jobs/{id}", n.handleJob)
		n.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		go func() { _ = n.srv.Serve(ln) }() // returns ErrServerClosed on stop
		f.nodes = append(f.nodes, n)
	}
	return f, nil
}

func (f *replayFleet) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, n := range f.nodes {
		_ = n.srv.Shutdown(ctx) // only a blown budget fails; the pool drain below still runs
		_ = n.pool.Shutdown(ctx)
		n.jnl.Close()
		n.peer.CloseIdleConnections()
	}
}

// markJournal records the journal counters at the start of the
// measured phase.
func (f *replayFleet) markJournal() {
	for _, n := range f.nodes {
		st := n.jnl.Stats()
		n.journalStart = journalSnap{st.Appends, st.Commits, st.CommitRecords, st.FsyncsSaved}
	}
}

// journalDelta sums the journal counters since markJournal.
func (f *replayFleet) journalDelta() journalSnap {
	var d journalSnap
	for _, n := range f.nodes {
		st := n.jnl.Stats()
		d.appends += st.Appends - n.journalStart.appends
		d.commits += st.Commits - n.journalStart.commits
		d.records += st.CommitRecords - n.journalStart.records
		d.saved += st.FsyncsSaved - n.journalStart.saved
	}
	return d
}

// traceCtx reads the request id and parent span a traced client round
// trip sent along (0, 0 when untraced).
func traceCtx(r *http.Request) (int64, int64) {
	rid, parent, ok := strings.Cut(r.Header.Get(traceHeader), ".")
	if !ok {
		return 0, 0
	}
	a, err1 := strconv.ParseInt(rid, 10, 64)
	b, err2 := strconv.ParseInt(parent, 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0
	}
	return a, b
}

func decodeStrict(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func replyError(w http.ResponseWriter, status int, err error) {
	http.Error(w, err.Error(), status)
}

func writeResult(w http.ResponseWriter, state string, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(hdrCache, state)
	w.Header().Set(hdrResultSum, resultSum(body))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body) // the connection is the only failure mode left
}

// jobBody mirrors the server's async envelope.
type jobBody struct {
	ID     string          `json:"id"`
	Status jobs.Status     `json:"status"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // the connection is the only failure mode left
}

// validateStar is the bounds/simulate validation: the topology and the
// routing tables must build.
func validateStar(n, v int) error {
	top, err := stargraph.New(n)
	if err != nil {
		return err
	}
	_, err = routing.New(routing.EnhancedNbc, top, v)
	return err
}

// handleSync serves /v1/predict and /v1/bounds.
func (n *replayNode) handleSync(w http.ResponseWriter, r *http.Request) {
	tr := n.tr
	rid, parent := traceCtx(r)
	route := tr.begin("server.route", rid, parent)
	defer tr.end(route)
	if n.ring != nil {
		w.Header().Set(hdrNode, n.self)
	}
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		replyError(w, http.StatusBadRequest, err)
		return
	}
	kind := strings.TrimPrefix(r.URL.Path, "/v1/")
	var req any
	var run func(ex int64) ([]byte, error)
	sp := tr.begin("server.decode", rid, route)
	if kind == "predict" {
		var pr server.PredictRequest
		err = decodeStrict(raw, &pr)
		req = pr
		run = func(ex int64) ([]byte, error) {
			body, iters, err := predictBody(pr, tr, rid, ex)
			n.mu.Lock()
			n.modelIters += iters
			n.modelEvals++
			n.mu.Unlock()
			return body, err
		}
	} else {
		var br server.BoundsRequest
		err = decodeStrict(raw, &br)
		req = br
		run = func(ex int64) ([]byte, error) {
			body, iters, err := boundsBody(br, tr, rid, ex)
			n.mu.Lock()
			n.boundsIters += iters
			n.boundsEvals++
			n.mu.Unlock()
			return body, err
		}
	}
	tr.end(sp)
	if err != nil {
		replyError(w, http.StatusBadRequest, err)
		return
	}
	if pr, ok := req.(server.PredictRequest); ok {
		sp = tr.begin("model.paths", rid, route)
		_, err = model.NewStarPaths(pr.Topo.N)
	} else {
		br := req.(server.BoundsRequest)
		sp = tr.begin("server.validate", rid, route)
		err = validateStar(br.Topo.N, br.V)
	}
	tr.end(sp)
	if err != nil {
		replyError(w, http.StatusBadRequest, err)
		return
	}
	sp = tr.begin("jobs.hash", rid, route)
	id, err := jobs.Hash(kind, req)
	tr.end(sp)
	if err != nil {
		replyError(w, http.StatusBadRequest, err)
		return
	}
	sp = tr.begin("cache.get", rid, route)
	body, ok := n.cache.Get(id)
	tr.end(sp)
	if ok {
		writeResult(w, "hit", body)
		return
	}
	if n.ring != nil && r.Header.Get(forwardHeader) == "" {
		sp = tr.begin("cluster.owner", rid, route)
		owner := n.ring.Owner(id)
		tr.end(sp)
		if owner != n.self {
			n.forward(w, owner, r.URL.Path, raw, rid, route)
			return
		}
	}
	canon, err := jobs.CanonicalJSON(req)
	if err != nil {
		replyError(w, http.StatusInternalServerError, err)
		return
	}
	do := tr.begin("jobs.do", rid, route)
	v, err := n.pool.DoMeta(r.Context(), id, jobs.Meta{Kind: kind, Req: canon}, func(context.Context) (any, error) {
		ex := tr.begin("jobs.exec", rid, do)
		defer tr.end(ex)
		body, err := run(ex)
		if err != nil {
			return nil, err
		}
		sp := tr.begin("cache.put", rid, ex)
		n.cache.Put(id, body)
		tr.end(sp)
		return body, nil
	})
	tr.end(do)
	if err != nil {
		replyError(w, http.StatusInternalServerError, err)
		return
	}
	writeResult(w, "miss", v.([]byte))
}

// forward relays a request to its ring owner and verifies the relayed
// body against its content sum, as the server's cluster path does.
func (n *replayNode) forward(w http.ResponseWriter, owner, path string, raw []byte, rid, route int64) {
	fw := n.tr.begin("cluster.forward", rid, route)
	req, err := http.NewRequest(http.MethodPost, "http://"+owner+path, bytes.NewReader(raw))
	if err != nil {
		n.tr.end(fw)
		replyError(w, http.StatusInternalServerError, err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(forwardHeader, n.self)
	if rid != 0 {
		req.Header.Set(traceHeader, strconv.FormatInt(rid, 10)+"."+strconv.FormatInt(fw, 10))
	}
	resp, err := n.peer.Do(req)
	if err != nil {
		n.tr.end(fw)
		replyError(w, http.StatusBadGateway, err)
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode == http.StatusOK && resultSum(body) != resp.Header.Get(hdrResultSum) {
		err = errors.New("relayed body does not match its content sum")
	}
	n.tr.end(fw)
	if err != nil {
		replyError(w, http.StatusBadGateway, err)
		return
	}
	for _, h := range []string{"Content-Type", hdrCache, hdrResultSum, hdrNode} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(body) // the connection is the only failure mode left
}

// parseSim decodes and validates one simulate config and hashes it.
func (n *replayNode) parseSim(raw []byte, rid, route int64) (server.SimulateRequest, string, error) {
	tr := n.tr
	var req server.SimulateRequest
	sp := tr.begin("server.decode", rid, route)
	err := decodeStrict(raw, &req)
	tr.end(sp)
	if err != nil {
		return req, "", err
	}
	sp = tr.begin("server.validate", rid, route)
	err = validateStar(req.Topo.N, req.V)
	tr.end(sp)
	if err != nil {
		return req, "", err
	}
	sp = tr.begin("jobs.hash", rid, route)
	id, err := jobs.Hash("simulate", req)
	tr.end(sp)
	return req, id, err
}

// simJob is the pool function of one simulate job; job is its root
// span, which outlives the submitting request.
func (n *replayNode) simJob(req server.SimulateRequest, id string, rid, job int64) jobs.Func {
	tr := n.tr
	return func(context.Context) (any, error) {
		defer tr.end(job)
		ex := tr.begin("jobs.exec", rid, job)
		defer tr.end(ex)
		body, res, err := simBody(req, tr, rid, ex)
		if err != nil {
			return nil, err
		}
		if rid != 0 {
			n.mu.Lock()
			n.simCycles += res.Cycles
			n.mu.Unlock()
		}
		sp := tr.begin("cache.put", rid, ex)
		n.cache.Put(id, body)
		tr.end(sp)
		return body, nil
	}
}

func (n *replayNode) handleSimulate(w http.ResponseWriter, r *http.Request) {
	tr := n.tr
	rid, parent := traceCtx(r)
	route := tr.begin("server.route", rid, parent)
	defer tr.end(route)
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		replyError(w, http.StatusBadRequest, err)
		return
	}
	req, id, err := n.parseSim(raw, rid, route)
	if err != nil {
		replyError(w, http.StatusBadRequest, err)
		return
	}
	sp := tr.begin("cache.get", rid, route)
	cached := n.cache.Contains(id)
	tr.end(sp)
	if cached {
		writeJSON(w, http.StatusOK, jobBody{ID: id, Status: jobs.StatusDone})
		return
	}
	canon, err := jobs.CanonicalJSON(req)
	if err != nil {
		replyError(w, http.StatusInternalServerError, err)
		return
	}
	job := tr.begin("jobs.job", rid, 0)
	sp = tr.begin("jobs.submit", rid, route)
	j, err := n.pool.SubmitMeta(id, jobs.Meta{Kind: "simulate", Req: canon}, n.simJob(req, id, rid, job))
	tr.end(sp)
	if err != nil {
		replyError(w, http.StatusTooManyRequests, err)
		return
	}
	writeJSON(w, http.StatusAccepted, jobBody{ID: id, Status: j.Status()})
}

func (n *replayNode) handleBatch(w http.ResponseWriter, r *http.Request) {
	tr := n.tr
	rid, parent := traceCtx(r)
	route := tr.begin("server.route", rid, parent)
	defer tr.end(route)
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		replyError(w, http.StatusBadRequest, err)
		return
	}
	var batch struct {
		Items []struct {
			Kind   string          `json:"kind"`
			Config json.RawMessage `json:"config"`
		} `json:"items"`
	}
	if err := decodeStrict(raw, &batch); err != nil {
		replyError(w, http.StatusBadRequest, err)
		return
	}
	items := make([]jobs.BatchItem, len(batch.Items))
	for i, it := range batch.Items {
		if it.Kind != "simulate" {
			replyError(w, http.StatusBadRequest, fmt.Errorf("replay batches carry simulate jobs, not %q", it.Kind))
			return
		}
		req, id, err := n.parseSim(it.Config, rid, route)
		if err != nil {
			replyError(w, http.StatusBadRequest, err)
			return
		}
		canon, err := jobs.CanonicalJSON(req)
		if err != nil {
			replyError(w, http.StatusInternalServerError, err)
			return
		}
		job := tr.begin("jobs.job", rid, 0)
		items[i] = jobs.BatchItem{ID: id, Meta: jobs.Meta{Kind: "simulate", Req: canon}, Fn: n.simJob(req, id, rid, job)}
	}
	type itemResult struct {
		ID     string      `json:"id,omitempty"`
		Status jobs.Status `json:"status,omitempty"`
		Error  string      `json:"error,omitempty"`
	}
	out := struct {
		Items []itemResult `json:"items"`
	}{Items: make([]itemResult, len(items))}
	sp := tr.begin("jobs.submit", rid, route)
	results := n.pool.SubmitBatch(items)
	tr.end(sp)
	for i, res := range results {
		if res.Err != nil {
			out.Items[i] = itemResult{Error: res.Err.Error()}
			continue
		}
		out.Items[i] = itemResult{ID: items[i].ID, Status: res.Job.Status()}
	}
	writeJSON(w, http.StatusOK, out)
}

func (n *replayNode) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if body, ok := n.cache.Get(id); ok {
		w.Header().Set(hdrResultSum, resultSum(body))
		writeJSON(w, http.StatusOK, jobBody{ID: id, Status: jobs.StatusDone, Result: body})
		return
	}
	j, ok := n.pool.Get(id)
	if !ok {
		replyError(w, http.StatusNotFound, errors.New("unknown job "+id))
		return
	}
	switch j.Status() {
	case jobs.StatusDone:
		v, err := j.Result()
		if err != nil {
			replyError(w, http.StatusInternalServerError, err)
			return
		}
		body := v.([]byte)
		w.Header().Set(hdrResultSum, resultSum(body))
		writeJSON(w, http.StatusOK, jobBody{ID: id, Status: jobs.StatusDone, Result: body})
	case jobs.StatusFailed:
		_, err := j.Result()
		writeJSON(w, http.StatusOK, jobBody{ID: id, Status: jobs.StatusFailed, Error: err.Error()})
	default:
		writeJSON(w, http.StatusOK, jobBody{ID: id, Status: j.Status()})
	}
}
