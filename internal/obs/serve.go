package obs

// Serving-layer reporting types. The simulator-side reporting above
// (Metrics, Counters, Summary) describes one run; the types here
// describe the long-lived serving processes built in PR 4 — the
// job pool (internal/jobs), the result cache (internal/cache) and the
// HTTP routes (internal/server) — and are what GET /metricsz returns.
// They live in obs so every layer reports through one vocabulary.

// PoolStats is a point-in-time snapshot of a jobs.Pool.
type PoolStats struct {
	// Workers is the pool size, QueueDepth the intake bound beyond
	// which submissions are rejected with jobs.ErrQueueFull.
	Workers    int `json:"workers"`
	QueueDepth int `json:"queue_depth"`
	// Queued and Running are the current backlog and in-flight counts.
	Queued  int `json:"queued"`
	Running int `json:"running"`
	// Submitted counts accepted jobs; Deduped submissions that
	// attached to an in-flight job instead of enqueuing a duplicate
	// (the singleflight counter); Rejected backpressure refusals.
	Submitted uint64 `json:"submitted"`
	Deduped   uint64 `json:"deduped"`
	Rejected  uint64 `json:"rejected"`
	// Completed and Failed count finished jobs by outcome.
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	// ExecMeanMicros is the mean job execution time over every
	// finished job, in microseconds — what admission control prices
	// the backlog with (HTTP handler latency would be wrong: an async
	// submit returns 202 in microseconds however long its job runs).
	ExecMeanMicros float64 `json:"exec_mean_us"`
}

// CacheStats is a point-in-time snapshot of a cache.Cache.
type CacheStats struct {
	// Entries and Bytes (value bytes) describe the current memory
	// tier; MaxBytes bounds Bytes. MappedBytes is the tier's real
	// footprint: the off-heap slab chunks and dedicated mappings that
	// hold its keys and values, free slots included.
	Entries     int   `json:"entries"`
	Bytes       int64 `json:"bytes"`
	MappedBytes int64 `json:"mapped_bytes"`
	MaxBytes    int64 `json:"max_bytes"`
	// MemHits and DiskHits split hits by the tier that served them
	// (a disk hit is promoted into memory); Misses count lookups
	// neither tier could serve.
	MemHits  uint64 `json:"mem_hits"`
	DiskHits uint64 `json:"disk_hits"`
	Misses   uint64 `json:"misses"`
	// Puts counts stores, Evictions entries dropped by the byte bound.
	Puts      uint64 `json:"puts"`
	Evictions uint64 `json:"evictions"`
	// DiskWrites counts persisted entries, DiskErrors best-effort disk
	// operations that failed (the cache stays correct, only colder).
	DiskWrites uint64 `json:"disk_writes"`
	DiskErrors uint64 `json:"disk_errors"`
	// Quarantined counts disk entries that failed verification on
	// read and were moved into corrupt/ instead of being served.
	Quarantined uint64 `json:"quarantined"`
}

// Hits is the total over both tiers.
func (s CacheStats) Hits() uint64 { return s.MemHits + s.DiskHits }

// HitRate is Hits/(Hits+Misses), 0 when no lookups happened.
func (s CacheStats) HitRate() float64 {
	total := s.Hits() + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits()) / float64(total)
}

// JournalStats is a point-in-time snapshot of a journal.Journal, the
// durable job WAL added in PR 5.
type JournalStats struct {
	// Appends counts records written; AppendErrors appends the
	// journal could not make durable (the write or its fsync failed —
	// the serving layer keeps running, but the record may not survive
	// a crash).
	Appends      uint64 `json:"appends"`
	AppendErrors uint64 `json:"append_errors"`
	// Syncs counts fsyncs issued (file and directory).
	Syncs uint64 `json:"syncs"`
	// Rotations and Compactions count segment rollovers and rewrites.
	Rotations   uint64 `json:"rotations"`
	Compactions uint64 `json:"compactions"`
	// Segments is the current on-disk segment count; Pending the jobs
	// accepted or started but not yet done/failed (what a crash right
	// now would replay).
	Segments int `json:"segments"`
	Pending  int `json:"pending"`
	// Replayed and CorruptSkipped describe the last recovery: records
	// read back at Open, and records dropped for failing their
	// checksum (a torn tail or a flipped bit).
	Replayed       int `json:"replayed"`
	CorruptSkipped int `json:"corrupt_skipped"`
	// Group commit (PR 10). Commits counts coalesced write+fsync
	// units; CommitRecords the records those commits made durable;
	// MaxBatch the largest records-per-commit seen; FsyncsSaved how
	// many per-record fsyncs batching amortised away
	// (CommitRecords − Commits).
	Commits       uint64 `json:"commits"`
	CommitRecords uint64 `json:"commit_records"`
	MaxBatch      int    `json:"max_batch"`
	FsyncsSaved   uint64 `json:"fsyncs_saved"`
	// Commit latency in microseconds: exact mean/max plus quantile
	// upper bounds from a power-of-two histogram (conservative by at
	// most 2×, like the per-route latency sketches).
	CommitMeanMicros float64 `json:"commit_mean_us"`
	CommitP50Micros  uint64  `json:"commit_p50_us"`
	CommitP95Micros  uint64  `json:"commit_p95_us"`
	CommitP99Micros  uint64  `json:"commit_p99_us"`
	CommitMaxMicros  uint64  `json:"commit_max_us"`
	// Read-only degradation (PR 12). ReadOnly reports the journal hit
	// ENOSPC and has not yet proven space returned; NoSpaceErrors
	// counts records lost to full-disk commits; Probes counts the
	// explicit space checks (successful ones clear ReadOnly).
	ReadOnly      bool   `json:"read_only"`
	NoSpaceErrors uint64 `json:"no_space_errors"`
	Probes        uint64 `json:"probes"`
}

// BatchStats counts the server's POST /v1/jobs:batch traffic (PR 10).
type BatchStats struct {
	// Batches counts batch requests taken in; Items the items they
	// carried; MaxItems the largest batch seen.
	Batches  uint64 `json:"batches"`
	Items    uint64 `json:"items"`
	MaxItems int    `json:"max_items"`
	// Shed counts items refused by the batch's deadline-priced
	// admission pass (each also counted in AdmissionStats.Shed).
	Shed uint64 `json:"shed"`
}

// AdmissionStats counts the server's overload refusals.
type AdmissionStats struct {
	// Shed counts requests rejected by deadline-aware load shedding
	// (estimated queue wait exceeded the request's deadline).
	Shed uint64 `json:"shed"`
	// BreakerRejected counts requests refused because the route's
	// circuit breaker was open.
	BreakerRejected uint64 `json:"breaker_rejected"`
}

// BreakerStats is a point-in-time snapshot of one route's circuit
// breaker.
type BreakerStats struct {
	Route string `json:"route"`
	// State is "closed", "open" or "half-open".
	State string `json:"state"`
	// Samples and Failures describe the sliding outcome window the
	// trip decision reads.
	Samples  int `json:"samples"`
	Failures int `json:"failures"`
	// Trips counts closed→open transitions; Rejected requests refused
	// while open.
	Trips    uint64 `json:"trips"`
	Rejected uint64 `json:"rejected"`
}

// ClusterStats is a point-in-time snapshot of one node's view of the
// sharded cluster (PR 7): its ring membership plus the peer-routing
// counters — how many requests it owned, relayed, failed over, filled
// from a peer's cache, or computed locally as the last resort.
type ClusterStats struct {
	// Self is this node's advertised address; Members the full ring
	// membership (sorted, self included); VirtualNodes the per-member
	// virtual-node count. All three must agree across the cluster.
	Self         string   `json:"self"`
	Members      []string `json:"members"`
	VirtualNodes int      `json:"virtual_nodes"`
	// Owned counts compute requests this node owned on the ring and
	// served itself; Forwarded requests relayed to a peer that
	// answered; ForwardErrors individual peer attempts that failed
	// (connection refused, timeout, 5xx).
	Owned         uint64 `json:"owned"`
	Forwarded     uint64 `json:"forwarded"`
	ForwardErrors uint64 `json:"forward_errors"`
	// Failovers counts preference-order steps past an unavailable
	// peer (dead, timing out, or breaker-open); LocalFallbacks
	// requests for ids this node does not own that it computed anyway
	// because no preferred peer could — capacity degraded,
	// availability kept.
	Failovers      uint64 `json:"failovers"`
	LocalFallbacks uint64 `json:"local_fallbacks"`
	// PeerFills counts results fetched from a peer's cache instead of
	// recomputed; PeerFillCorrupt fetched bodies rejected because
	// their bytes did not match the advertised content sum (never
	// stored, never served).
	PeerFills       uint64 `json:"peer_fills"`
	PeerFillCorrupt uint64 `json:"peer_fill_corrupt"`
	// PeerBreakers snapshots the per-peer circuit breakers guarding
	// forwards and fills, keyed by peer address in Route.
	PeerBreakers []BreakerStats `json:"peer_breakers"`
}

// RouteStats summarises one HTTP route's traffic: request count,
// error responses (status ≥ 400) and a latency sketch read from the
// per-route power-of-two histogram (internal/stats).
type RouteStats struct {
	Route  string `json:"route"`
	Count  uint64 `json:"count"`
	Errors uint64 `json:"errors"`
	// MeanMicros is the exact running mean; the quantiles are upper
	// bounds of the power-of-two microsecond bucket the quantile
	// falls in, so they are conservative by at most 2×.
	MeanMicros float64 `json:"mean_us"`
	P50Micros  uint64  `json:"p50_us"`
	P95Micros  uint64  `json:"p95_us"`
	P99Micros  uint64  `json:"p99_us"`
	MaxMicros  uint64  `json:"max_us"`
}
