// Package server is the HTTP serving layer of the repository
// (cmd/starperfd): a stdlib net/http JSON API over the analytical
// model, the flit-level simulator and the Figure 1 sweep harness.
//
// Layering. Requests (request.go) normalise their defaults and hash
// into a content id (internal/jobs.Hash). Synchronous evaluation
// (POST /v1/predict, POST /v1/bounds) and asynchronous jobs (POST /v1/simulate,
// POST /v1/sweep; GET /v1/jobs/{id}) both run on one bounded
// jobs.Pool — singleflight on the content id, typed backpressure —
// and store their marshalled results in the two-tier internal/cache
// keyed by the same id, so an identical request is a cache hit with
// a byte-identical body, an in-flight duplicate shares the
// computation, and only genuinely new work costs anything.
//
// Operational surface: GET /healthz liveness, GET /metricsz (pool
// depth, cache hit/miss/evict counters, per-route latency
// histograms), request-body size limits, a server-wide concurrency
// cap, and graceful shutdown that drains in-flight jobs
// (cmd/starperfd wires SIGINT/SIGTERM to Close).
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"starperf/internal/cache"
	"starperf/internal/cfgerr"
	"starperf/internal/cluster"
	"starperf/internal/jobs"
	"starperf/internal/journal"
	"starperf/internal/model"
	"starperf/internal/obs"
	"starperf/internal/routing"
)

// Config sizes a Server. The zero value is usable.
type Config struct {
	// Workers and QueueDepth size the job pool (defaults NumCPU
	// and 256).
	Workers    int
	QueueDepth int
	// JobTimeout bounds one job's wall clock (default 0: jobs are
	// cycle-bounded by their own configs).
	JobTimeout time.Duration
	// Cache configures the result store (see cache.Config).
	Cache cache.Config
	// MaxBodyBytes bounds request bodies (default 1 MiB).
	MaxBodyBytes int64
	// MaxInFlight caps concurrently served requests; excess requests
	// are refused with 503 (default 256).
	MaxInFlight int
	// Journal, when set, makes the job pool crash-safe: lifecycle
	// records are fsynced to this WAL and Recover replays what a
	// crash interrupted. The Server does not own the journal — the
	// caller opens it (journal.Open) and closes it after Close.
	Journal *journal.Journal
	// DefaultDeadline is the patience assumed for requests that carry
	// neither a context deadline nor an X-Starperf-Deadline header
	// (default 30s); admission control sheds a request whose
	// estimated queue wait exceeds its deadline.
	DefaultDeadline time.Duration
	// Breaker tunes the per-route circuit breaker guarding the
	// compute routes.
	Breaker BreakerConfig
	// Ring, when set, makes this node one member of a sharded cluster
	// (see internal/cluster and cluster.go): compute requests for ids
	// a peer owns are forwarded there, failing over down the ring when
	// the owner is unreachable; finished results are filled from peer
	// caches after verification; /metricsz reports the routing
	// counters. Every member must build its ring from the same member
	// list, or nodes disagree about ownership.
	Ring *cluster.Ring
	// PeerHTTP is the HTTP client peers are reached with (default a
	// plain http.Client; tests inject one bound to test listeners).
	PeerHTTP *http.Client
	// PeerTimeout bounds one peer cache fill or cross-node job lookup
	// (default 2s). Forwarded compute requests are budgeted by the
	// caller's own deadline instead.
	PeerTimeout time.Duration
	// PeerScheme is the URL scheme peers are reached by (default
	// "http" — cluster traffic is assumed to run on a trusted
	// network, as the README documents).
	PeerScheme string
	// PeerBreaker tunes the per-peer circuit breakers that keep a
	// dead or flapping peer probed instead of hammered.
	PeerBreaker BreakerConfig
	// ProbeEvery rate-limits the journal space probes a read-only node
	// issues before refusing an async submit (default 1s; negative
	// probes on every refusal, which drills use so recovery is
	// immediate). Irrelevant without a Journal.
	ProbeEvery time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 256
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.ProbeEvery == 0 {
		c.ProbeEvery = time.Second
	}
	return c
}

// Server routes the starperfd API. Construct with New, mount
// Handler, and Close on the way out.
type Server struct {
	pool     *jobs.Pool
	cache    *cache.Cache
	journal  *journal.Journal
	mux      *http.ServeMux
	metrics  *metrics
	breakers *breakerSet
	cluster  *peerNet // nil when unclustered
	topos    *topoTable
	sem      chan struct{}
	maxBody  int64
	workers  int // pool size, for batch admission pricing

	defaultDeadline time.Duration
	shed            atomic.Uint64

	// Read-only degradation (PR 12): when the journal trips on
	// ENOSPC, async submits are refused until a probe proves space
	// returned. lastProbe rate-limits those probes; readOnly503
	// counts the refusals for /metricsz.
	probeEvery  time.Duration
	lastProbe   atomic.Int64
	readOnly503 atomic.Uint64

	// Batch ingestion counters (PR 10), reported on /metricsz.
	batches    atomic.Uint64
	batchItems atomic.Uint64
	batchShed  atomic.Uint64
	batchMax   atomic.Int64
}

// New builds a Server and starts its job pool.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	store, err := cache.New(cfg.Cache)
	if err != nil {
		return nil, err
	}
	s := &Server{
		pool: jobs.NewPool(jobs.PoolConfig{
			Workers:    cfg.Workers,
			QueueDepth: cfg.QueueDepth,
			JobTimeout: cfg.JobTimeout,
			Journal:    cfg.Journal,
		}),
		cache:           store,
		journal:         cfg.Journal,
		mux:             http.NewServeMux(),
		metrics:         newMetrics(),
		breakers:        newBreakerSet(cfg.Breaker),
		topos:           newTopoTable(topoBudget),
		sem:             make(chan struct{}, cfg.MaxInFlight),
		maxBody:         cfg.MaxBodyBytes,
		workers:         cfg.Workers,
		defaultDeadline: cfg.DefaultDeadline,
		probeEvery:      cfg.ProbeEvery,
	}
	if cfg.Ring != nil {
		s.cluster = newPeerNet(cfg)
	}
	// The three compute routes run behind the breaker and admission
	// control; the read-only operational routes never shed — you must
	// be able to poll a job or read /metricsz on an overloaded server.
	s.mux.HandleFunc("POST /v1/predict", s.instrument("/v1/predict", s.guard("/v1/predict", s.handlePredict)))
	s.mux.HandleFunc("POST /v1/bounds", s.instrument("/v1/bounds", s.guard("/v1/bounds", s.handleBounds)))
	s.mux.HandleFunc("POST /v1/simulate", s.instrument("/v1/simulate", s.guard("/v1/simulate", s.handleSimulate)))
	s.mux.HandleFunc("POST /v1/sweep", s.instrument("/v1/sweep", s.guard("/v1/sweep", s.handleSweep)))
	// The batch route runs its own per-item admission (one decision
	// priced at batch cost, partial acceptance — see batch.go), so it
	// mounts under instrument only, not guard.
	s.mux.HandleFunc("POST /v1/jobs:batch", s.instrument("/v1/jobs:batch", s.handleBatch))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("/v1/jobs", s.handleJob))
	s.mux.HandleFunc("GET /v1/ring/{id}", s.instrument("/v1/ring", s.handleRing))
	s.mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /metricsz", s.instrument("/metricsz", s.handleMetricsz))
	return s, nil
}

// Recover replays a journal's incomplete records into the pool: each
// is rebuilt from its journaled kind and canonical request body, or
// skipped when the cache already holds its result. Call once after
// New, before serving traffic.
func (s *Server) Recover(rec *journal.Recovery) jobs.Recovery {
	if rec == nil {
		return jobs.Recovery{}
	}
	return s.pool.Recover(rec.Incomplete, func(id, kind string, req []byte) (jobs.Func, bool, error) {
		// A verifying read, not Contains: Contains only stats the disk
		// file, and journaling a job done on the strength of a corrupt
		// entry would 404 it forever — Get checksums the entry,
		// quarantining a corrupt one so the job is re-enqueued and
		// recomputed instead.
		if _, ok := s.cache.Get(id); ok {
			return nil, false, nil
		}
		run, err := s.rebuildRun(kind, req)
		if err != nil {
			return nil, false, err
		}
		return s.runAndStore(id, run), true, nil
	})
}

// rebuildRun reconstitutes a journaled request body into its typed
// runner — the inverse of the meta each handler journals on submit.
func (s *Server) rebuildRun(kind string, req []byte) (func() (any, error), error) {
	switch kind {
	case "predict":
		var r PredictRequest
		if err := json.Unmarshal(req, &r); err != nil {
			return nil, fmt.Errorf("server: journaled predict body: %w", err)
		}
		return func() (any, error) { return r.run(s.topos) }, nil
	case "bounds":
		var r BoundsRequest
		if err := json.Unmarshal(req, &r); err != nil {
			return nil, fmt.Errorf("server: journaled bounds body: %w", err)
		}
		return func() (any, error) { return r.run(s.topos) }, nil
	case "simulate":
		var r SimulateRequest
		if err := json.Unmarshal(req, &r); err != nil {
			return nil, fmt.Errorf("server: journaled simulate body: %w", err)
		}
		return func() (any, error) { return r.run() }, nil
	case "sweep":
		var r SweepRequest
		if err := json.Unmarshal(req, &r); err != nil {
			return nil, fmt.Errorf("server: journaled sweep body: %w", err)
		}
		return func() (any, error) { return r.run() }, nil
	default:
		return nil, fmt.Errorf("server: journaled job of unknown kind %q", kind)
	}
}

// Handler returns the routed API.
func (s *Server) Handler() http.Handler { return s.mux }

// Pool exposes the job pool (metrics, tests).
func (s *Server) Pool() *jobs.Pool { return s.pool }

// Cache exposes the result store (metrics, tests).
func (s *Server) Cache() *cache.Cache { return s.cache }

// Close drains the job pool within ctx's budget.
func (s *Server) Close(ctx context.Context) error { return s.pool.Shutdown(ctx) }

// statusWriter records the response code for metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the concurrency cap, the body
// limit and per-route latency accounting.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		default:
			s.writeError(w, r, http.StatusServiceUnavailable,
				classQueueFull, "server at concurrency cap", s.queueWait())
			return
		}
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
		}
		if s.cluster != nil {
			// Name the serving node; a relayed peer response overwrites
			// this with the node that actually did the work.
			w.Header().Set(nodeHeader, s.cluster.ring.Self())
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sw, r)
		s.metrics.observe(route, sw.status, time.Since(start))
	}
}

// guard stacks the failure-protection layers in front of a compute
// handler: deadline-aware admission control first, the circuit
// breaker second. The order matters — breakers.allow consumes the
// single half-open probe slot, and only observe releases it, so
// every path between the two must reach the handler. Shedding after
// allow would leak the probe and pin the route open forever (likely,
// too: at half-open time the backlog that tripped the breaker is
// often still there). Admission sheds and breaker rejections return
// before allow, so neither feeds the breaker's outcome window — its
// own refusals would otherwise poison the sample.
func (s *Server) guard(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if est, deadline := s.estWait(route), s.requestDeadline(r); est > deadline {
			s.shed.Add(1)
			s.writeError(w, r, http.StatusTooManyRequests, classQueueFull,
				fmt.Sprintf("estimated queue wait %s exceeds request deadline %s",
					est.Round(time.Millisecond), deadline.Round(time.Millisecond)),
				est)
			return
		}
		ok, wait := s.breakers.allow(route)
		if !ok {
			s.writeError(w, r, http.StatusServiceUnavailable, classQueueFull,
				"circuit breaker open for "+route, wait)
			return
		}
		gw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		// Observe via defer so a panicking handler still reports (as a
		// failure — net/http turns the panic into a dead connection);
		// otherwise a half-open probe that panicked would leak the
		// probe slot exactly like a shed one.
		panicked := true
		defer func() {
			s.breakers.observe(route, panicked || gw.status >= 500)
		}()
		h(gw, r)
		panicked = false
	}
}

// jobBody is the async-endpoint envelope.
type jobBody struct {
	ID     string          `json:"id"`
	Status jobs.Status     `json:"status"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// readBody drains a request body into memory (already bounded by
// MaxBytesReader). Handlers keep the raw bytes because the cluster
// path forwards them verbatim to a peer — which re-normalises and
// re-hashes them to the same content id.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.writeError(w, r, http.StatusRequestEntityTooLarge, classInvalidConfig,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit), noRetry)
			return nil, false
		}
		s.writeError(w, r, http.StatusBadRequest, classInvalidConfig,
			"reading request: "+err.Error(), noRetry)
		return nil, false
	}
	return raw, true
}

// decode parses a JSON request body strictly — unknown fields are
// errors, because a silently dropped typo would mint a fresh cache
// key for a request the caller never meant to make.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, raw []byte, v any) bool {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.writeError(w, r, http.StatusBadRequest, classInvalidConfig,
			"malformed request: "+err.Error(), noRetry)
		return false
	}
	return true
}

// writeErr maps a computation or submission error onto the wire via
// classifyErr.
func (s *Server) writeErr(w http.ResponseWriter, r *http.Request, err error) {
	status, we := s.classifyErr(err)
	retry := noRetry
	if we.RetryAfterMS > 0 {
		retry = time.Duration(we.RetryAfterMS) * time.Millisecond
	}
	s.writeError(w, r, status, we.Class, we.Message, retry)
}

// classifyErr maps an error onto the v1 wire contract: status code
// plus the wireError a standalone request would receive. The batch
// handler uses it directly to build per-item entries.
func (s *Server) classifyErr(err error) (int, wireError) {
	var unreachable *routing.UnreachableError
	switch {
	case errors.Is(err, cfgerr.ErrInvalid):
		return http.StatusBadRequest, wireError{Class: classInvalidConfig, Message: err.Error()}
	case errors.Is(err, model.ErrSaturated):
		return http.StatusUnprocessableEntity, wireError{Class: classSaturated, Message: err.Error()}
	case errors.As(err, &unreachable):
		return http.StatusUnprocessableEntity, wireError{Class: classUnreachable, Message: err.Error()}
	case errors.Is(err, jobs.ErrQueueFull):
		return http.StatusTooManyRequests, wireError{
			Class: classQueueFull, Message: err.Error(),
			RetryAfterMS: retryMillis(s.queueWait()),
		}
	case errors.Is(err, jobs.ErrPoolClosed):
		return http.StatusServiceUnavailable, wireError{
			Class: classQueueFull, Message: err.Error(),
			RetryAfterMS: retryMillis(time.Second),
		}
	case errors.Is(err, jobs.ErrReadOnly):
		// The pool-level backstop of the journalReadOnly gate: a
		// submission that raced past the handler check still refuses
		// with the read_only contract.
		return http.StatusServiceUnavailable, wireError{
			Class: classReadOnly, Message: err.Error(),
			RetryAfterMS: retryMillis(time.Second),
		}
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout, wireError{Class: classTimeout, Message: err.Error()}
	default:
		return http.StatusInternalServerError, wireError{Class: classInternal, Message: err.Error()}
	}
}

// retryMillis converts a wait estimate to the envelope's
// retry_after_ms, minimum 1 ms so a retryable class always carries a
// positive hint.
func retryMillis(d time.Duration) int64 {
	if ms := d.Milliseconds(); ms > 1 {
		return ms
	}
	return 1
}

// writeJSON emits v with the given status.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // the connection is the only failure mode left
}

// writeResult emits a finished computation's stored bytes verbatim —
// the response body is exactly the cached (and therefore exactly the
// recomputed) encoding; hit/miss state travels in headers so it can
// never perturb the body. The content sum rides along (PR 12) so any
// hop between us and the caller — a forwarding peer, a retrying
// client — can verify the bytes arrived intact.
func (s *Server) writeResult(w http.ResponseWriter, id, cacheState string, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(jobHeader, id)
	w.Header().Set(cacheHeader, cacheState)
	w.Header().Set(resultSumHeader, resultSum(body))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// handlePredict serves POST /v1/predict synchronously: cache hit →
// stored bytes; otherwise evaluate on the pool (deduplicated against
// concurrent identical requests) and store.
func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	raw, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var req PredictRequest
	if !s.decode(w, r, raw, &req) {
		return
	}
	req = req.withDefaults()
	if err := req.validate(); err != nil {
		s.writeErr(w, r, err)
		return
	}
	id, err := req.hash()
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	if body, ok := s.cache.Get(id); ok {
		s.writeResult(w, id, "hit", body)
		return
	}
	if s.clusterRoute(w, r, id, raw, true) {
		return
	}
	meta, err := submitMeta("predict", req)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	v, err := s.pool.DoMeta(r.Context(), id, meta, s.runAndStore(id, func() (any, error) { return req.run(s.topos) }))
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	s.writeResult(w, id, "miss", v.([]byte))
}

// handleBounds serves POST /v1/bounds synchronously, exactly like
// /v1/predict: cache hit → stored bytes; otherwise evaluate the bound
// engine on the pool and store. An unboundable operating point is a
// valid 200 body ({"unboundable":true}), not an error.
func (s *Server) handleBounds(w http.ResponseWriter, r *http.Request) {
	raw, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var req BoundsRequest
	if !s.decode(w, r, raw, &req) {
		return
	}
	req = req.withDefaults()
	if err := req.validate(s.topos); err != nil {
		s.writeErr(w, r, err)
		return
	}
	id, err := req.hash()
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	if body, ok := s.cache.Get(id); ok {
		s.writeResult(w, id, "hit", body)
		return
	}
	if s.clusterRoute(w, r, id, raw, true) {
		return
	}
	meta, err := submitMeta("bounds", req)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	v, err := s.pool.DoMeta(r.Context(), id, meta, s.runAndStore(id, func() (any, error) { return req.run(s.topos) }))
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	s.writeResult(w, id, "miss", v.([]byte))
}

// submitMeta packs a request's journalable identity: the kind plus
// the canonical body a restart will rebuild the job from (the same
// canonicalisation the content hash uses, so the journal and the
// cache agree on what the job is).
func submitMeta(kind string, req any) (jobs.Meta, error) {
	body, err := jobs.CanonicalJSON(req)
	if err != nil {
		return jobs.Meta{}, err
	}
	return jobs.Meta{Kind: kind, Req: body}, nil
}

// runAndStore adapts a request runner into a pool Func that caches
// its marshalled result under id and returns the exact stored bytes.
func (s *Server) runAndStore(id string, run func() (any, error)) jobs.Func {
	return func(ctx context.Context) (any, error) {
		res, err := run()
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(res)
		if err != nil {
			return nil, err
		}
		s.cache.Put(id, body)
		return body, nil
	}
}

// journalReadOnly reports whether async submissions must be refused
// because the journal cannot make their acceptance durable (ENOSPC).
// Before refusing, it issues at most one space probe per ProbeEvery,
// so a disk that recovered flips the node back to read-write on the
// next submit instead of waiting for organic sync traffic to commit
// something. Sync routes never consult this: they acknowledge nothing
// they have not already computed.
func (s *Server) journalReadOnly() bool {
	if s.journal == nil || !s.journal.ReadOnly() {
		return false
	}
	now := time.Now().UnixNano()
	last := s.lastProbe.Load()
	if now-last >= int64(s.probeEvery) && s.lastProbe.CompareAndSwap(last, now) {
		if s.journal.Probe() == nil {
			return false
		}
	}
	return s.journal.ReadOnly()
}

// refuseReadOnly emits the read-only 503: the v1 envelope with the
// read_only class and a retry hint sized to the probe interval — the
// soonest a retry could observe a recovered disk.
func (s *Server) refuseReadOnly(w http.ResponseWriter, r *http.Request) {
	s.readOnly503.Add(1)
	retry := s.probeEvery
	if retry < time.Second {
		retry = time.Second
	}
	s.writeError(w, r, http.StatusServiceUnavailable, classReadOnly,
		"journal is read-only (disk full): async submissions refused until space returns", retry)
}

// submitAsync is the shared shape of /v1/simulate and /v1/sweep: an
// already-cached result answers done immediately; otherwise the job
// is enqueued (or joined, if an identical one is in flight) and the
// caller polls GET /v1/jobs/{id}. A read-only journal refuses the
// submit instead: a 202 is a durability promise this node currently
// cannot keep.
func (s *Server) submitAsync(w http.ResponseWriter, r *http.Request, id string, meta jobs.Meta, fn jobs.Func) {
	if s.cache.Contains(id) {
		s.writeJSON(w, http.StatusOK, jobBody{ID: id, Status: jobs.StatusDone})
		return
	}
	if s.journalReadOnly() {
		s.refuseReadOnly(w, r)
		return
	}
	j, err := s.pool.SubmitMeta(id, meta, fn)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	s.writeJSON(w, http.StatusAccepted, jobBody{ID: id, Status: j.Status()})
}

// handleSimulate serves POST /v1/simulate.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	raw, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var req SimulateRequest
	if !s.decode(w, r, raw, &req) {
		return
	}
	req = req.withDefaults()
	if err := req.validate(); err != nil {
		s.writeErr(w, r, err)
		return
	}
	id, err := req.hash()
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	if s.cache.Contains(id) {
		s.writeJSON(w, http.StatusOK, jobBody{ID: id, Status: jobs.StatusDone})
		return
	}
	if s.clusterRoute(w, r, id, raw, false) {
		return
	}
	meta, err := submitMeta("simulate", req)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	s.submitAsync(w, r, id, meta, s.runAndStore(id, func() (any, error) { return req.run() }))
}

// handleSweep serves POST /v1/sweep.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	raw, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var req SweepRequest
	if !s.decode(w, r, raw, &req) {
		return
	}
	req = req.withDefaults()
	if err := req.validate(); err != nil {
		s.writeErr(w, r, err)
		return
	}
	id, err := req.hash()
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	if s.cache.Contains(id) {
		s.writeJSON(w, http.StatusOK, jobBody{ID: id, Status: jobs.StatusDone})
		return
	}
	if s.clusterRoute(w, r, id, raw, false) {
		return
	}
	meta, err := submitMeta("sweep", req)
	if err != nil {
		s.writeErr(w, r, err)
		return
	}
	s.submitAsync(w, r, id, meta, s.runAndStore(id, func() (any, error) { return req.run() }))
}

// handleJob serves GET /v1/jobs/{id}: resolve from the cache first
// (results outlive the pool's retention window there), then from the
// pool registry, then — on a clustered node — from the peers that may
// own the job. Done responses advertise the sha256 of their result
// bytes in X-Starperf-Result-Sum so a peer filling its cache can
// verify what it received.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if body, ok := s.cache.Get(id); ok {
		w.Header().Set(resultSumHeader, resultSum(body))
		s.writeJSON(w, http.StatusOK, jobBody{ID: id, Status: jobs.StatusDone, Result: body})
		return
	}
	j, ok := s.pool.Get(id)
	if !ok {
		if s.clusterJobLookup(w, r, id) {
			return
		}
		s.writeError(w, r, http.StatusNotFound, classUnreachable, "unknown job "+id, noRetry)
		return
	}
	switch j.Status() {
	case jobs.StatusDone:
		v, err := j.Result()
		if err != nil {
			s.writeErr(w, r, err)
			return
		}
		body := v.([]byte)
		w.Header().Set(resultSumHeader, resultSum(body))
		s.writeJSON(w, http.StatusOK, jobBody{ID: id, Status: jobs.StatusDone, Result: body})
	case jobs.StatusFailed:
		_, err := j.Result()
		s.writeJSON(w, http.StatusOK, jobBody{ID: id, Status: jobs.StatusFailed, Error: err.Error()})
	default:
		s.writeJSON(w, http.StatusOK, jobBody{ID: id, Status: j.Status()})
	}
}

// healthBody is the GET /healthz response. Cluster is present on a
// clustered node and is what the client bootstraps its ring from.
type healthBody struct {
	OK bool `json:"ok"`
	// JournalReadOnly reports the disk-full degradation: the node is
	// alive and serving sync routes, but refuses async submissions
	// until journal space returns.
	JournalReadOnly bool        `json:"journal_readonly,omitempty"`
	Cluster         *ringConfig `json:"cluster,omitempty"`
}

// ringConfig is the ring-membership triple every member (and the
// client) must agree on to build identical rings.
type ringConfig struct {
	Self         string   `json:"self"`
	Members      []string `json:"members"`
	VirtualNodes int      `json:"virtual_nodes"`
}

// handleHealthz serves GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := healthBody{OK: true}
	if s.journal != nil {
		body.JournalReadOnly = s.journal.ReadOnly()
	}
	if s.cluster != nil {
		body.Cluster = &ringConfig{
			Self:         s.cluster.ring.Self(),
			Members:      s.cluster.ring.Members(),
			VirtualNodes: s.cluster.ring.VirtualNodes(),
		}
	}
	s.writeJSON(w, http.StatusOK, body)
}

// Metricsz is the GET /metricsz response body. Journal is null when
// the server runs without one.
type Metricsz struct {
	Pool   obs.PoolStats    `json:"pool"`
	Cache  obs.CacheStats   `json:"cache"`
	Routes []obs.RouteStats `json:"routes"`
	// JournalReadOnly mirrors the healthz flag (also inside Journal
	// as read_only); ReadOnlyRefused counts async submits 503ed while
	// the journal could not take them.
	JournalReadOnly bool               `json:"journal_readonly"`
	ReadOnlyRefused uint64             `json:"read_only_refused"`
	Journal         *obs.JournalStats  `json:"journal,omitempty"`
	Batch           obs.BatchStats     `json:"batch"`
	Admission       obs.AdmissionStats `json:"admission"`
	Breakers        []obs.BreakerStats `json:"breakers"`
	// Cluster is null on an unclustered node.
	Cluster *obs.ClusterStats `json:"cluster,omitempty"`
}

// handleMetricsz serves GET /metricsz.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	body := Metricsz{
		Pool:     s.pool.Stats(),
		Cache:    s.cache.Stats(),
		Routes:   s.metrics.report(),
		Breakers: s.breakers.report(),
	}
	if s.journal != nil {
		st := s.journal.Stats()
		body.Journal = &st
		body.JournalReadOnly = st.ReadOnly
	}
	body.ReadOnlyRefused = s.readOnly503.Load()
	body.Batch = obs.BatchStats{
		Batches:  s.batches.Load(),
		Items:    s.batchItems.Load(),
		MaxItems: int(s.batchMax.Load()),
		Shed:     s.batchShed.Load(),
	}
	body.Admission.Shed = s.shed.Load()
	for _, b := range body.Breakers {
		body.Admission.BreakerRejected += b.Rejected
	}
	if s.cluster != nil {
		st := s.cluster.stats()
		body.Cluster = &st
	}
	s.writeJSON(w, http.StatusOK, body)
}
