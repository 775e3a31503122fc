package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"starperf/client"
	"starperf/internal/bounds"
	"starperf/internal/desim"
	"starperf/internal/jobs"
	"starperf/internal/model"
	"starperf/internal/routing"
	"starperf/internal/server"
	"starperf/internal/stargraph"
)

// delta is what the daemons did between two /metricsz scrapes, summed
// over the nodes.
type delta struct {
	hits, misses, evictions                  uint64
	submitted, deduped, rejected, completed  uint64
	shed                                     uint64
	routeCount                               uint64
	routeMicros                              float64
	appends, commits, commitRecords, fsaved  uint64
	commitMicros                             float64
	owned, forwarded, forwardErrs, peerFills uint64
}

// computeRoutes are the routes a workload's requests enter by; job
// polls, health checks and scrapes are left out.
var computeRoutes = map[string]bool{
	"/v1/predict": true, "/v1/bounds": true, "/v1/simulate": true, "/v1/jobs:batch": true,
}

func diff(before, after []server.Metricsz) delta {
	var d delta
	for i := range after {
		b, a := before[i], after[i]
		d.hits += a.Cache.Hits() - b.Cache.Hits()
		d.misses += a.Cache.Misses - b.Cache.Misses
		d.evictions += a.Cache.Evictions - b.Cache.Evictions
		d.submitted += a.Pool.Submitted - b.Pool.Submitted
		d.deduped += a.Pool.Deduped - b.Pool.Deduped
		d.rejected += a.Pool.Rejected - b.Pool.Rejected
		d.completed += a.Pool.Completed - b.Pool.Completed
		d.shed += a.Admission.Shed + a.Admission.BreakerRejected - b.Admission.Shed - b.Admission.BreakerRejected
		for _, ra := range a.Routes {
			if !computeRoutes[ra.Route] {
				continue
			}
			var cb uint64
			var mb float64
			for _, rb := range b.Routes {
				if rb.Route == ra.Route {
					cb, mb = rb.Count, rb.MeanMicros
				}
			}
			d.routeCount += ra.Count - cb
			d.routeMicros += ra.MeanMicros*float64(ra.Count) - mb*float64(cb)
		}
		if a.Journal != nil && b.Journal != nil {
			ja, jb := a.Journal, b.Journal
			d.appends += ja.Appends - jb.Appends
			d.commits += ja.Commits - jb.Commits
			d.commitRecords += ja.CommitRecords - jb.CommitRecords
			d.fsaved += ja.FsyncsSaved - jb.FsyncsSaved
			d.commitMicros += ja.CommitMeanMicros*float64(ja.Commits) - jb.CommitMeanMicros*float64(jb.Commits)
		}
		if a.Cluster != nil && b.Cluster != nil {
			d.owned += a.Cluster.Owned - b.Cluster.Owned
			d.forwarded += a.Cluster.Forwarded - b.Cluster.Forwarded
			d.forwardErrs += a.Cluster.ForwardErrors - b.Cluster.ForwardErrors
			d.peerFills += a.Cluster.PeerFills - b.Cluster.PeerFills
		}
	}
	return d
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// selfCheck fails a run whose workload did not do what it claims: the
// cache hit ratio inside the workload's band, one pool completion per
// miss the clients were told about, and on the ring about two thirds of
// the requests forwarded.
func selfCheck(w *workload, d delta, ph *phase) []string {
	var bad []string
	hr := ratio(float64(d.hits), float64(d.hits+d.misses))
	if w.Nodes > 1 {
		// An entry node that forwards misses its own cache by design;
		// the share the clients saw served from cache is the claim.
		hr = ratio(float64(ph.hits), float64(ph.hits+ph.misses))
	}
	if hr < w.MinHitRatio || hr > w.MaxHitRatio {
		bad = append(bad, fmt.Sprintf("cache hit ratio %.4f outside [%g, %g]", hr, w.MinHitRatio, w.MaxHitRatio))
	}
	misses := uint64(ph.misses + len(ph.jobs))
	if d.completed != misses {
		bad = append(bad, fmt.Sprintf("pool completed %d jobs, clients saw %d misses", d.completed, misses))
	}
	if w.Nodes > 1 {
		fr := ratio(float64(d.forwarded), float64(ph.served))
		if fr < w.MinForwardRatio || fr > w.MaxForwardRatio {
			bad = append(bad, fmt.Sprintf("forward ratio %.4f outside [%g, %g]", fr, w.MinForwardRatio, w.MaxForwardRatio))
		}
		if cr := ratio(float64(ph.forwarded), float64(ph.served)); cr < w.MinForwardRatio || cr > w.MaxForwardRatio {
			bad = append(bad, fmt.Sprintf("clients saw %.4f of responses from another node", cr))
		}
	}
	return bad
}

// daemonLayers turns a metricsz delta into per-layer metrics.
func daemonLayers(d delta, served int, m metrics) {
	m.set("server.route_mean_us", ratio(d.routeMicros, float64(d.routeCount)), "us")
	m.set("server.shed", float64(d.shed), "count")
	m.set("jobs.dedup_ratio", ratio(float64(d.deduped), float64(d.submitted+d.deduped)), "ratio")
	m.set("jobs.rejected", float64(d.rejected), "count")
	m.set("cache.hit_ratio", ratio(float64(d.hits), float64(d.hits+d.misses)), "ratio")
	m.set("cache.evictions", float64(d.evictions), "count")
	m.set("journal.commit_us", ratio(d.commitMicros, float64(d.commits)), "us")
	m.set("journal.records_per_commit", ratio(float64(d.commitRecords), float64(d.commits)), "count")
	m.set("journal.appends_per_job", ratio(float64(d.appends), float64(d.completed)), "count")
	m.set("journal.fsyncs_saved", float64(d.fsaved), "count")
	m.set("cluster.forward_ratio", ratio(float64(d.forwarded), float64(served)), "ratio")
	m.set("cluster.peer_fills", float64(d.peerFills), "count")
	m.set("cluster.forward_errors", float64(d.forwardErrs), "count")
}

// spanLayers turns the replay's spans into per-layer times.
func spanLayers(spans []span, m metrics) {
	lt := selfTimes(spans)
	m.set("server.decode_us", lt["server.decode"].meanMicros(), "us")
	m.set("model.paths_us", lt["model.paths"].meanMicros(), "us")
	m.set("jobs.hash_us", lt["jobs.hash"].meanMicros(), "us")
	m.set("cache.get_us", lt["cache.get"].meanMicros(), "us")
	m.set("cache.put_us", lt["cache.put"].meanMicros(), "us")
	m.set("jobs.exec_us", lt["jobs.exec"].meanMicros(), "us")
	m.set("model.eval_us", lt["model.eval"].meanMicros(), "us")
	m.set("bounds.eval_us", lt["bounds.eval"].meanMicros(), "us")
	m.set("cluster.forward_us", lt["cluster.forward"].selfMicros(), "us")
	m.set("client.rtt_us", lt["client"].meanMicros(), "us")
	// The server's own share of a client round trip: the round trip
	// minus every layer span the handler traced (the root's and the
	// route's self times).
	m.set("server.self_us", ratio(float64(lt["client"].self+lt["server.route"].self)/1e3, float64(lt["client"].n)), "us")

	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	var wait time.Duration
	var waits int
	for _, s := range spans {
		if s.Name == "jobs.exec" {
			wait += time.Duration(s.Start - byID[s.Parent].Start)
			waits++
		}
	}
	m.set("jobs.queue_wait_us", ratio(float64(wait)/1e3, float64(waits)), "us")
}

// allocProbe measures allocations per call of the layers the stream
// exercises, on up to probeN of its distinct requests, with nothing
// else running in the process.
const probeN = 16

func allocProbe(preds []server.PredictRequest, bnds []server.BoundsRequest, sims []server.SimulateRequest, m metrics) error {
	var ms0, ms1 runtime.MemStats
	measure := func(f func() error) (allocs, bytes uint64, err error) {
		runtime.ReadMemStats(&ms0)
		err = f()
		runtime.ReadMemStats(&ms1)
		return ms1.Mallocs - ms0.Mallocs, ms1.TotalAlloc - ms0.TotalAlloc, err
	}
	var hashReqs []any
	for _, p := range preds {
		hashReqs = append(hashReqs, p)
	}
	for _, b := range bnds {
		hashReqs = append(hashReqs, b)
	}
	for _, s := range sims {
		hashReqs = append(hashReqs, s)
	}
	a, _, err := measure(func() error {
		for _, r := range hashReqs {
			if _, err := jobs.Hash("probe", r); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("jobs.hash_allocs", ratio(float64(a), float64(len(hashReqs))), "count")

	var evals int
	a, b, err := measure(func() error {
		for _, p := range preds {
			top, err := stargraph.New(p.Topo.N)
			if err != nil {
				return err
			}
			paths, err := model.NewStarPaths(p.Topo.N)
			if err != nil {
				return err
			}
			if _, err := model.Evaluate(model.Config{Paths: paths, Top: top, Kind: routing.EnhancedNbc,
				V: p.V, MsgLen: p.MsgLen, Rate: p.Rate}); err != nil {
				return err
			}
			evals++
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("model.eval_allocs", ratio(float64(a), float64(evals)), "count")
	m.set("model.eval_kb", ratio(float64(b)/1024, float64(evals)), "KiB")

	evals = 0
	a, _, err = measure(func() error {
		for _, q := range bnds {
			top, err := stargraph.New(q.Topo.N)
			if err != nil {
				return err
			}
			if _, err := bounds.Evaluate(bounds.Config{Top: top, Kind: routing.EnhancedNbc,
				V: q.V, MsgLen: q.MsgLen, Rate: q.Rate, BufCap: q.BufCap, LinkBW: q.LinkBW}); err != nil {
				return err
			}
			evals++
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("bounds.eval_allocs", ratio(float64(a), float64(evals)), "count")

	var msgs uint64
	a, _, err = measure(func() error {
		for _, s := range sims {
			top, err := stargraph.New(s.Topo.N)
			if err != nil {
				return err
			}
			spec, err := routing.New(routing.EnhancedNbc, top, s.V)
			if err != nil {
				return err
			}
			res, err := desim.Run(desim.Config{Top: top, Spec: spec, Rate: s.Rate, MsgLen: s.MsgLen,
				BufCap: s.BufCap, Seed: s.Seed, WarmupCycles: s.Warmup, MeasureCycles: s.Measure, DrainCycles: s.Drain})
			if err != nil {
				return err
			}
			msgs += res.Delivered
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("desim.allocs_per_msg", ratio(float64(a), float64(msgs)), "count")
	return nil
}

// countingTransport counts the client's POST attempts. Every call
// below issues exactly one POST when nothing is retried (job polls are
// GETs), so retries are POST attempts minus POSTing calls.
type countingTransport struct {
	base  http.RoundTripper
	posts atomic.Int64
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodPost {
		c.posts.Add(1)
	}
	return c.base.RoundTrip(r)
}

// clientProbe drives ops through the public client package against
// url and reports the client's mean call time and its retries. Every
// call must succeed; a failure counts as a failed op.
func clientProbe(url string, ops []op, poll time.Duration, ph *phase, m metrics) error {
	ct := &countingTransport{base: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	c, err := client.New(client.Config{BaseURL: url, HTTPClient: &http.Client{Transport: ct}, PollInterval: poll, Seed: 1})
	if err != nil {
		return err
	}
	defer ct.base.(*http.Transport).CloseIdleConnections()
	ctx := context.Background()
	var calls, posts int
	var total time.Duration
	for _, o := range ops {
		start := time.Now()
		var err error
		switch {
		case len(o.sims) > 0:
			for _, s := range o.sims {
				var cr client.SimulateRequest
				if err = remarshal(s, &cr); err != nil {
					break
				}
				posts++
				if _, err = c.Simulate(ctx, cr); err != nil {
					break
				}
			}
		case o.path == "/v1/predict":
			var cr client.PredictRequest
			if err = json.Unmarshal(o.body, &cr); err == nil {
				posts++
				_, err = c.Predict(ctx, cr)
			}
		default:
			var cr client.BoundsRequest
			if err = json.Unmarshal(o.body, &cr); err == nil {
				posts++
				_, err = c.PredictBounds(ctx, cr)
			}
		}
		d := time.Since(start)
		if err != nil {
			ph.fail("client %s: %v", o.path, err)
			continue
		}
		ph.ok(d, time.Now(), false)
		calls++
		total += d
	}
	m.set("client.call_us", ratio(float64(total)/1e3, float64(calls)), "us")
	m.set("client.retries", float64(ct.posts.Load()-int64(posts)), "count")
	return nil
}

func remarshal(in, out any) error {
	b, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, out)
}
