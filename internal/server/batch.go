package server

// POST /v1/jobs:batch — batched ingestion (PR 10).
//
// Request:  {"items": [{"kind": "predict", "config": {...}}, ...]}
// Response: 200 {"items": [{"id", "status"} | {"error": {...}}, ...]}
//
// A batch is a set of independently addressable jobs — content-hash
// ids make each item exactly the job its standalone submission would
// have been — but the batch pays its fixed costs once: one HTTP round
// trip, ONE admission decision priced at the batch's cumulative cost,
// and ONE journal commit (a single fsync) for the whole accepted set
// via jobs.Pool.SubmitBatch → journal.AppendBatch.
//
// Acceptance is partial, never all-or-nothing: items the deadline-
// priced queue budget cannot take get per-item queue_full entries
// (the 429 a standalone submit would have received, retry hint
// included) while the affordable subset proceeds. Items[i] in the
// response always corresponds to items[i] in the request.
//
// On a clustered node the batch is split by ring owner: each peer's
// sub-batch is forwarded to it (one hop, marked X-Starperf-Forwarded)
// and the replies are merged back by index; a peer that cannot be
// reached degrades to computing its items locally, mirroring the
// single-request fallback policy in cluster.go.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"starperf/internal/cfgerr"
	"starperf/internal/jobs"
)

// maxBatchItems bounds one batch request; a bigger workload is split
// by the caller (client.SubmitBatch does this itself).
const maxBatchItems = 256

// batchItem is one submission: the job kind and its config, exactly
// the body the kind's standalone route would take.
type batchItem struct {
	Kind   string          `json:"kind"`
	Config json.RawMessage `json:"config"`
}

// batchRequest is the POST /v1/jobs:batch body.
type batchRequest struct {
	Items []batchItem `json:"items"`
}

// batchItemResult is one item's outcome: id+status on acceptance (or
// cache hit), a wireError otherwise — the same envelope object the
// item would have received as a standalone non-2xx response.
type batchItemResult struct {
	ID     string      `json:"id,omitempty"`
	Status jobs.Status `json:"status,omitempty"`
	Error  *wireError  `json:"error,omitempty"`
}

// batchResponse is the 200 body: items[i] answers request items[i].
type batchResponse struct {
	Items []batchItemResult `json:"items"`
}

// parsedItem is a validated, hashed batch item bound for the pool.
type parsedItem struct {
	idx  int // position in the request
	id   string
	meta jobs.Meta
	fn   jobs.Func
	raw  batchItem // original wire form, for sub-batch forwarding
}

// decodeStrict parses raw into v with unknown fields rejected,
// classifying failures as configuration errors.
func decodeStrict(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return cfgerr.New("malformed config: " + err.Error())
	}
	return nil
}

// parseBatchItem validates one item through the same pipeline its
// standalone route runs: strict decode, defaults, validate, hash.
func (s *Server) parseBatchItem(it batchItem) (parsedItem, error) {
	switch it.Kind {
	case "predict":
		var req PredictRequest
		if err := decodeStrict(it.Config, &req); err != nil {
			return parsedItem{}, err
		}
		req = req.withDefaults()
		if err := req.validate(); err != nil {
			return parsedItem{}, err
		}
		id, err := req.hash()
		if err != nil {
			return parsedItem{}, err
		}
		meta, err := submitMeta("predict", req)
		if err != nil {
			return parsedItem{}, err
		}
		return parsedItem{id: id, meta: meta, fn: s.runAndStore(id, func() (any, error) { return req.run(s.topos) }), raw: it}, nil
	case "simulate":
		var req SimulateRequest
		if err := decodeStrict(it.Config, &req); err != nil {
			return parsedItem{}, err
		}
		req = req.withDefaults()
		if err := req.validate(); err != nil {
			return parsedItem{}, err
		}
		id, err := req.hash()
		if err != nil {
			return parsedItem{}, err
		}
		meta, err := submitMeta("simulate", req)
		if err != nil {
			return parsedItem{}, err
		}
		return parsedItem{id: id, meta: meta, fn: s.runAndStore(id, func() (any, error) { return req.run() }), raw: it}, nil
	case "sweep":
		var req SweepRequest
		if err := decodeStrict(it.Config, &req); err != nil {
			return parsedItem{}, err
		}
		req = req.withDefaults()
		if err := req.validate(); err != nil {
			return parsedItem{}, err
		}
		id, err := req.hash()
		if err != nil {
			return parsedItem{}, err
		}
		meta, err := submitMeta("sweep", req)
		if err != nil {
			return parsedItem{}, err
		}
		return parsedItem{id: id, meta: meta, fn: s.runAndStore(id, func() (any, error) { return req.run() }), raw: it}, nil
	default:
		return parsedItem{}, cfgerr.Errorf("unknown job kind %q (want predict, simulate or sweep)", it.Kind)
	}
}

// handleBatch serves POST /v1/jobs:batch.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	raw, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var req batchRequest
	if !s.decode(w, r, raw, &req) {
		return
	}
	if len(req.Items) == 0 {
		s.writeError(w, r, http.StatusBadRequest, classInvalidConfig, "batch has no items", noRetry)
		return
	}
	if len(req.Items) > maxBatchItems {
		s.writeError(w, r, http.StatusBadRequest, classInvalidConfig,
			fmt.Sprintf("batch has %d items, limit %d", len(req.Items), maxBatchItems), noRetry)
		return
	}
	// A batch is an async acceptance en masse — the one journal
	// AppendBatch is its durability. A read-only journal refuses the
	// whole request up front (503 read_only) rather than accepting
	// items it cannot make durable.
	if s.journalReadOnly() {
		s.refuseReadOnly(w, r)
		return
	}
	s.observeBatch(len(req.Items))

	out := make([]batchItemResult, len(req.Items))

	// Parse and hash every item; cache hits are answered in place, the
	// rest queue up for routing and admission.
	var pending []parsedItem
	for i, it := range req.Items {
		p, err := s.parseBatchItem(it)
		if err != nil {
			_, we := s.classifyErr(err)
			out[i] = batchItemResult{Error: &we}
			continue
		}
		p.idx = i
		if s.cache.Contains(p.id) {
			out[i] = batchItemResult{ID: p.id, Status: jobs.StatusDone}
			continue
		}
		pending = append(pending, p)
	}

	// Split by ring owner; peer sub-batches come back merged into out,
	// what remains is ours (owned, or fallback for unreachable peers).
	local := pending
	if s.cluster != nil && !isForwarded(r) {
		local = s.clusterBatch(r, pending, out)
	}

	// ONE admission decision for the whole local set, priced at batch
	// cost: the backlog's drain time plus each admitted item's own
	// expected execution time, accumulated in request order against
	// the caller's deadline. Items past the budget get the queue_full
	// entry a standalone submit would have gotten, with the Retry-After
	// the backlog at that point implies; cheaper later items may still
	// fit — acceptance is per item, not prefix-only.
	deadline := s.requestDeadline(r)
	est := s.queueWait()
	workers := float64(s.workers)
	admitted := make([]parsedItem, 0, len(local))
	for _, p := range local {
		cost := time.Duration(s.pool.ExecMeanMicros(p.meta.Kind) / workers * float64(time.Microsecond))
		if est+cost > deadline {
			s.shed.Add(1)
			s.batchShed.Add(1)
			out[p.idx] = batchItemResult{Error: &wireError{
				Class: classQueueFull,
				Message: fmt.Sprintf("estimated queue wait %s exceeds request deadline %s",
					(est + cost).Round(time.Millisecond), deadline.Round(time.Millisecond)),
				RetryAfterMS: retryMillis(est + cost),
			}}
			continue
		}
		est += cost
		admitted = append(admitted, p)
	}

	// ONE pool submission — one journal group commit — for the
	// admitted set.
	items := make([]jobs.BatchItem, len(admitted))
	for n, p := range admitted {
		items[n] = jobs.BatchItem{ID: p.id, Meta: p.meta, Fn: p.fn}
	}
	for n, res := range s.pool.SubmitBatch(items) {
		p := admitted[n]
		if res.Err != nil {
			_, we := s.classifyErr(res.Err)
			out[p.idx] = batchItemResult{Error: &we}
			continue
		}
		out[p.idx] = batchItemResult{ID: p.id, Status: res.Job.Status()}
	}
	s.writeJSON(w, http.StatusOK, batchResponse{Items: out})
}

// clusterBatch routes a batch's pending items across the ring: items
// owned by peers are forwarded as per-owner sub-batches and their
// replies merged into out by index; returned are the items to run
// locally — our own, plus any whose owner could not take them.
func (s *Server) clusterBatch(r *http.Request, pending []parsedItem, out []batchItemResult) []parsedItem {
	cn := s.cluster
	var local []parsedItem
	groups := make(map[string][]parsedItem)
	for _, p := range pending {
		owner := cn.ring.Successors(p.id)[0]
		if owner == cn.ring.Self() {
			cn.owned.Add(1)
			local = append(local, p)
			continue
		}
		groups[owner] = append(groups[owner], p)
	}
	owners := make([]string, 0, len(groups))
	for owner := range groups {
		owners = append(owners, owner)
	}
	sort.Strings(owners) // deterministic forward order
	for _, owner := range owners {
		group := groups[owner]
		if ok, _ := cn.breakers.allow(owner); !ok {
			cn.failovers.Add(1)
			cn.localFallbacks.Add(1)
			local = append(local, group...)
			continue
		}
		results, err := s.forwardBatch(r, owner, group)
		if err != nil {
			// Dead or failing peer: feed its breaker and keep the items —
			// capacity degrades, the batch still completes.
			cn.breakers.observe(owner, true)
			cn.forwardErrors.Add(1)
			cn.failovers.Add(1)
			cn.localFallbacks.Add(1)
			local = append(local, group...)
			continue
		}
		cn.breakers.observe(owner, false)
		cn.forwarded.Add(uint64(len(group)))
		for n, p := range group {
			out[p.idx] = results[n]
		}
	}
	return local
}

// forwardBatch relays one owner's sub-batch and returns its per-item
// results in sub-batch order.
func (s *Server) forwardBatch(r *http.Request, owner string, group []parsedItem) ([]batchItemResult, error) {
	cn := s.cluster
	sub := batchRequest{Items: make([]batchItem, len(group))}
	for n, p := range group {
		sub.Items[n] = p.raw
	}
	body, err := json.Marshal(sub)
	if err != nil {
		return nil, err
	}
	resp, respBody, err := cn.forwardOnce(r.Context(), owner, "/v1/jobs:batch", body, s.requestDeadline(r))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("server: peer %s answered batch with %d", owner, resp.StatusCode)
	}
	var merged batchResponse
	if err := json.Unmarshal(respBody, &merged); err != nil {
		return nil, err
	}
	if len(merged.Items) != len(group) {
		return nil, fmt.Errorf("server: peer %s answered %d items for %d", owner, len(merged.Items), len(group))
	}
	return merged.Items, nil
}

// observeBatch folds one batch's size into the /metricsz counters.
func (s *Server) observeBatch(n int) {
	s.batches.Add(1)
	s.batchItems.Add(uint64(n))
	for {
		cur := s.batchMax.Load()
		if int64(n) <= cur || s.batchMax.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}
