package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"starperf/internal/server"
)

// The load generator. It runs in one process with at most two sending
// goroutines (the box has two cores); each owns one keep-alive
// connection per node. An open-loop phase sends on a seeded Poisson
// schedule and times every request from its due time, so a stall
// charges the requests queued behind it (no coordinated omission); a
// closed-loop phase keeps each sender's next request waiting on its
// previous one and measures capacity.

const (
	senders = 2
	// traceHeader carries "<request id>.<parent span id>" from a traced
	// client round trip into a replay node; the daemons ignore it.
	traceHeader = "Bench-Trace"
	// forwardHeader marks a replay node's forwarded request.
	forwardHeader = "Bench-Forwarded"
	// starperfd's response headers (internal/server/headers.go).
	hdrResultSum = "X-Starperf-Result-Sum"
	hdrCache     = "X-Starperf-Cache"
	hdrNode      = "X-Starperf-Node"
)

func resultSum(body []byte) string {
	sum := sha256.Sum256(body)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// sleepUntil blocks the calling thread in nanosleep until t. The Go
// timer behind time.Sleep can wake a millisecond late on a small VM,
// which would swamp a 300 µs request; nanosleep wakes within the
// kernel's ~50 µs timer slack.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop on the remaining time
	}
}

// agent is one sending goroutine's view of the target nodes.
type agent struct {
	hc    *http.Client
	urls  []string // base URL per node
	addrs []string // host:port per node (the X-Starperf-Node spelling)
	refs  [][]byte // reference body per warm-set index
	poll  time.Duration
	tr    *tracer
}

func newAgents(urls, addrs []string, refs [][]byte, poll time.Duration, tr *tracer) []*agent {
	out := make([]*agent, senders)
	for i := range out {
		out[i] = &agent{
			hc: &http.Client{Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			}, Timeout: 60 * time.Second},
			urls: urls, addrs: addrs, refs: refs, poll: poll, tr: tr,
		}
	}
	return out
}

func closeAgents(as []*agent) {
	for _, a := range as {
		a.hc.CloseIdleConnections()
	}
}

// phase collects one phase's outcomes. Latencies are of ok ops only; a
// failed op, including one whose output was wrong, counts in failed.
type phase struct {
	mu        sync.Mutex
	lat       []sample
	latTraced []float64 // ms, replay requests that carried a trace
	lags      []sample
	attempted int
	failed    int
	hits      int
	misses    int
	forwarded int
	served    int
	jobs      []jobDone
	errs      []string
}

// jobDone is a finished simulate job, kept for the post-phase check
// against an in-process desim.Run.
type jobDone struct {
	req    server.SimulateRequest
	result []byte
}

// sample is one ok op: when it was due, when it completed, and its
// latency in milliseconds.
type sample struct {
	due, end time.Time
	ms       float64
}

func msOf(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.ms
	}
	return out
}

func (ph *phase) ok(lat time.Duration, end time.Time, traced bool) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.attempted++
	ms := float64(lat) / 1e6
	if traced {
		ph.latTraced = append(ph.latTraced, ms)
	} else {
		ph.lat = append(ph.lat, sample{due: end.Add(-lat), end: end, ms: ms})
	}
}

func (ph *phase) fail(format string, args ...any) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.attempted++
	ph.failed++
	if len(ph.errs) < 8 {
		ph.errs = append(ph.errs, fmt.Sprintf(format, args...))
	}
}

// lag records how late the op due at due was sent.
func (ph *phase) lag(due time.Time, d time.Duration) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.lags = append(ph.lags, sample{due: due, end: due.Add(d), ms: float64(d) / 1e6})
}

// request performs one HTTP round trip and reads the whole body.
func (a *agent) request(method, url string, body []byte, rid, parent int64) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if rid != 0 {
		req.Header.Set(traceHeader, strconv.FormatInt(rid, 10)+"."+strconv.FormatInt(parent, 10))
	}
	resp, err := a.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, b, err
}

// pending is a submitted simulate job not yet seen done.
type pending struct {
	id    string
	node  int
	req   server.SimulateRequest
	due   time.Time
	next  time.Time
	rid   int64
	limit time.Time
}

// send issues op o, due at due. A synchronous op is checked and
// recorded at once; an async op returns its jobs for polling.
func (a *agent) send(o op, due time.Time, rid int64, ph *phase) []*pending {
	root := a.tr.begin("client", rid, 0)
	status, hdr, body, err := a.request(http.MethodPost, a.urls[o.entry]+o.path, o.body, rid, root)
	a.tr.end(root)
	end := time.Now()
	if len(o.sims) > 0 {
		return a.accepted(o, due, end, rid, status, body, err, ph)
	}
	switch {
	case err != nil:
		ph.fail("%s: %v", o.path, err)
	case status != http.StatusOK:
		ph.fail("%s: status %d: %.200s", o.path, status, body)
	case hdr.Get(hdrResultSum) != resultSum(body):
		ph.fail("%s: body does not match %s", o.path, hdrResultSum)
	case o.warm >= 0 && a.refs != nil && !bytes.Equal(body, a.refs[o.warm]):
		ph.fail("%s: warm body differs from the in-process reference: %.200s", o.path, body)
	default:
		ph.mu.Lock()
		switch hdr.Get(hdrCache) {
		case "hit":
			ph.hits++
		default:
			ph.misses++
		}
		ph.served++
		if n := hdr.Get(hdrNode); n != "" && n != a.addrs[o.entry] {
			ph.forwarded++
		}
		ph.mu.Unlock()
		ph.ok(end.Sub(due), end, rid != 0)
	}
	return nil
}

// accepted parses a simulate or batch submission's answer into jobs.
func (a *agent) accepted(o op, due, now time.Time, rid int64, status int, body []byte, err error, ph *phase) []*pending {
	fail := func(format string, args ...any) []*pending {
		for range o.sims {
			ph.fail(format, args...)
		}
		return nil
	}
	if err != nil {
		return fail("%s: %v", o.path, err)
	}
	type env struct {
		ID     string          `json:"id"`
		Status string          `json:"status"`
		Error  json.RawMessage `json:"error"`
	}
	var items []env
	if len(o.sims) == 1 {
		var e env
		if status != http.StatusAccepted && status != http.StatusOK || json.Unmarshal(body, &e) != nil {
			return fail("%s: status %d: %.200s", o.path, status, body)
		}
		items = []env{e}
	} else {
		var b struct {
			Items []env `json:"items"`
		}
		if status != http.StatusOK || json.Unmarshal(body, &b) != nil || len(b.Items) != len(o.sims) {
			return fail("%s: status %d: %.200s", o.path, status, body)
		}
		items = b.Items
	}
	var out []*pending
	for i, e := range items {
		if e.ID == "" || e.Error != nil || e.Status == "failed" {
			ph.fail("%s item %d refused: %.200s", o.path, i, body)
			continue
		}
		out = append(out, &pending{id: e.ID, node: o.entry, req: o.sims[i], due: due,
			next: now.Add(a.poll), rid: rid, limit: now.Add(60 * time.Second)})
	}
	return out
}

// pollOnce polls one job; it reports whether the job is finished
// (done, failed or given up on).
func (a *agent) pollOnce(p *pending, ph *phase) bool {
	status, hdr, body, err := a.request(http.MethodGet, a.urls[p.node]+"/v1/jobs/"+p.id, nil, 0, 0)
	now := time.Now()
	if err != nil || status != http.StatusOK {
		ph.fail("poll %s: status %d err %v: %.200s", p.id, status, err, body)
		return true
	}
	var env struct {
		Status string          `json:"status"`
		Error  string          `json:"error"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		ph.fail("poll %s: %v", p.id, err)
		return true
	}
	switch env.Status {
	case "done":
		if hdr.Get(hdrResultSum) != resultSum(env.Result) {
			ph.fail("poll %s: result does not match %s", p.id, hdrResultSum)
			return true
		}
		ph.mu.Lock()
		ph.jobs = append(ph.jobs, jobDone{req: p.req, result: append([]byte(nil), env.Result...)})
		ph.mu.Unlock()
		ph.ok(now.Sub(p.due), now, p.rid != 0)
		return true
	case "failed":
		ph.fail("job %s failed: %s", p.id, env.Error)
		return true
	}
	if now.After(p.limit) {
		ph.fail("job %s still %s after 60s", p.id, env.Status)
		return true
	}
	p.next = now.Add(a.poll)
	return false
}

// openLoop sends ops[i] at start+sched[i] from the agents, which share
// one arrival counter: whichever sender is free takes the next due op.
// Each sender also polls the jobs it submitted. rid maps an op index to
// its trace id (0: untraced). It returns the phase's start, which the
// schedule counts from.
func openLoop(agents []*agent, ops []op, sched []time.Duration, rid func(int) int64, ph *phase) time.Time {
	var next atomic.Int64
	start := time.Now().Add(2 * time.Millisecond)
	var wg sync.WaitGroup
	for _, a := range agents {
		wg.Add(1)
		go func(a *agent) {
			defer wg.Done()
			a.openRun(&next, ops, sched, start, rid, ph)
		}(a)
	}
	wg.Wait()
	return start
}

func (a *agent) openRun(next *atomic.Int64, ops []op, sched []time.Duration, start time.Time, rid func(int) int64, ph *phase) {
	var pend []*pending
	for {
		i := int(next.Load())
		var wake time.Time
		have := i < len(sched)
		if have {
			wake = start.Add(sched[i])
		}
		for _, p := range pend {
			if !have || p.next.Before(wake) {
				wake, have = p.next, true
			}
		}
		if !have {
			return
		}
		now := time.Now()
		if wake.After(now) {
			sleepUntil(wake)
			continue
		}
		if i < len(sched) && !start.Add(sched[i]).After(now) {
			if next.CompareAndSwap(int64(i), int64(i+1)) {
				due := start.Add(sched[i])
				ph.lag(due, now.Sub(due))
				pend = append(pend, a.send(ops[i], due, rid(i), ph)...)
			}
			continue
		}
		kept := pend[:0]
		for _, p := range pend {
			if p.next.After(now) || !a.pollOnce(p, ph) {
				kept = append(kept, p)
			}
		}
		pend = kept
	}
}

// runBlocking sends o and, for an async op, polls its jobs until they
// finish; latency runs from start.
func (a *agent) runBlocking(o op, start time.Time, ph *phase) {
	for _, p := range a.send(o, start, 0, ph) {
		for {
			sleepUntil(p.next)
			if a.pollOnce(p, ph) {
				break
			}
		}
	}
}

// closedLoop runs gen(base+k) for k = 0, 1, ... from every agent, each
// waiting for its previous op, until d has passed. It returns the
// phase's start; completions are read off the phase's samples.
func closedLoop(agents []*agent, gen func(uint64) (op, error), base uint64, d time.Duration, ph *phase) time.Time {
	var next atomic.Uint64
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for _, a := range agents {
		wg.Add(1)
		go func(a *agent) {
			defer wg.Done()
			for time.Now().Before(end) {
				o, err := gen(base + next.Add(1) - 1)
				if err != nil {
					ph.fail("generating op: %v", err)
					return
				}
				a.runBlocking(o, time.Now(), ph)
			}
		}(a)
	}
	wg.Wait()
	return start
}

// runAll sends every op of the list once, closed loop.
func runAll(agents []*agent, ops []op, ph *phase) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, a := range agents {
		wg.Add(1)
		go func(a *agent) {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(ops)); i = next.Add(1) - 1 {
				a.runBlocking(ops[i], time.Now(), ph)
			}
		}(a)
	}
	wg.Wait()
}

// dist summarises a latency sample: the median, the 90th and 99th
// percentiles (nearest rank), the sample count and how many samples lie
// beyond p99.
type dist struct {
	N             int
	P50, P90, P99 float64
	Beyond99      int
}

func summarize(vals []float64) dist {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	d := dist{N: len(s)}
	if len(s) == 0 {
		return d
	}
	d.P50 = s[rank(len(s), 0.50)]
	d.P90 = s[rank(len(s), 0.90)]
	r99 := rank(len(s), 0.99)
	d.P99 = s[r99]
	d.Beyond99 = len(s) - 1 - r99
	return d
}

// quietDist summarises the samples due inside the quiet windows.
func quietDist(samples []sample, quiet []interval) dist {
	var ms []float64
	for _, s := range samples {
		if inAny(quiet, s.due) {
			ms = append(ms, s.ms)
		}
	}
	return summarize(ms)
}

// quietRate is the completions per second inside the quiet windows.
func quietRate(samples []sample, quiet []interval) float64 {
	n := 0
	for _, s := range samples {
		if inAny(quiet, s.end) {
			n++
		}
	}
	return float64(n) / length(quiet).Seconds()
}

// rank is the nearest-rank index of quantile q among n sorted values.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n))) - 1
	return max(0, min(n-1, r))
}
