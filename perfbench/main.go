// Command perfbench is starperfd's end-to-end load benchmark. It starts
// fresh starperfd processes on loopback (journal in a scratch
// directory, memory cache), drives them from this one process with a
// seeded request stream, checks every output, and prints each metric
// by name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench -daemon PATH -workload NAME -seed N -seconds S -trace 0|1
//
// run.sh builds both binaries and runs this from the repository root.
// The workloads, their fixed rates and the layer → end-to-end
// prediction map live in plan.json.
//
// -trace 0 is the timed run. It sets the workload up as many times as
// plan.json says (setup_s is the median), then on the last set-up runs
// an open-loop Poisson phase at the workload's fixed rate, measuring
// the daemons' CPU time per completed op (cpu_us_per_op), and a
// closed-loop phase with two clients, and reads the daemons' peak RSS
// (rss_mb). It prints latency and capacity too; they are not in its
// JSON because they drift with the host (see below).
//
// -trace 1 is the per-layer run. It runs the same two phases with
// /metricsz scraped around the open-loop phase and reports latency
// (p50_ms, p90_ms, p99_ms) and capacity (capacity_rps), read from the
// quietest windows of each phase (host.go), then replays the same
// stream through in-process replay nodes (replay.go) that call each
// layer's public entry point under a span, tracing half the requests
// so the traced-minus-untraced median is the tracing overhead, and
// finally measures allocations per engine call and the public client.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"starperf/internal/server"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload name (see plan.json)")
	seed := flag.Uint64("seed", 1, "request-stream seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: timed end-to-end run; 1: per-layer traced run")
	daemon := flag.String("daemon", "", "path to the starperfd binary under test")
	workdir := flag.String("workdir", ".bench_build", "directory for journals, logs and traces")
	flag.Parse()
	// The generator shares two cores with the daemons; collecting its
	// small, fast-churning heap less often keeps its own GC work out of
	// the daemons' way and out of the measured latencies.
	debug.SetGCPercent(800)

	p, err := loadPlan()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	w := p.Workloads[*name]
	if w == nil || *daemon == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -daemon, -seconds > 0, -trace 0|1 and -workload one of %s\n",
			strings.Join(p.names(), ", "))
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(dir)

	st, err := newStream(w, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	b := &bench{p: p, w: w, st: st, bin: *daemon, dir: dir, seed: *seed,
		total: time.Duration(*seconds * float64(time.Second)), traceDir: *workdir}
	wake := keepCPUsAwake()
	res, problems, err := b.run(*trace == 1)
	wake()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, msg := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", msg)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// bench is one run of one workload.
type bench struct {
	p        *plan
	w        *workload
	st       *stream
	bin      string
	dir      string
	traceDir string
	seed     uint64
	total    time.Duration

	refs     [][]byte
	problems []string
	phases   []*phase
}

func (b *bench) newPhase(name string) *phase {
	ph := &phase{}
	b.phases = append(b.phases, ph)
	return ph
}

func (b *bench) problem(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// references computes the warm set's bodies in process.
func (b *bench) references() error {
	b.refs = make([][]byte, len(b.st.warm))
	errs := make([]error, len(b.st.warm))
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(b.st.warm); i += senders {
				b.refs[i], errs[i] = refBody(b.st.warm[i])
			}
		}(g)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// setup starts the workload's daemons and loads its warm set; the
// returned duration is setup_s's sample.
func (b *bench) setup(k int) (*fleet, time.Duration, error) {
	dir := filepath.Join(b.dir, fmt.Sprintf("setup%d", k))
	start := time.Now()
	f, err := startFleet(b.bin, dir, b.w.Nodes, b.w.Workers)
	if err != nil {
		return nil, 0, err
	}
	if len(b.st.warm) > 0 {
		agents := newAgents(f.urls, f.addrs, b.refs, b.p.pollInterval(), nil)
		runAll(agents, b.st.warm, b.newPhase("warm"))
		closeAgents(agents)
	}
	return f, time.Since(start), nil
}

func (b *bench) run(traced bool) (*result, []string, error) {
	if err := b.references(); err != nil {
		return nil, nil, fmt.Errorf("reference bodies: %w", err)
	}
	setups := 1
	if !traced {
		setups = b.w.Setups
	}
	var f *fleet
	var setupTimes []float64
	for k := 0; k < setups; k++ {
		var d time.Duration
		var err error
		f, d, err = b.setup(k)
		if err != nil {
			return nil, nil, err
		}
		setupTimes = append(setupTimes, d.Seconds())
		if k < setups-1 {
			if err := f.stop(); err != nil {
				return nil, nil, err
			}
		}
	}

	openDur := time.Duration(float64(b.total) * b.p.OpenShare)
	sched := b.st.schedule(b.w.OpenRPS, openDur)
	ops, err := b.st.ops(0, len(sched))
	if err != nil {
		f.stop()
		return nil, nil, err
	}
	before, err := f.metricsz()
	if err != nil {
		f.stop()
		return nil, nil, err
	}
	open := b.newPhase("open")
	agents := newAgents(f.urls, f.addrs, b.refs, b.p.pollInterval(), nil)
	host := startHostMeter()
	cpu0, err := f.cpuSeconds()
	if err != nil {
		host.close()
		f.stop()
		return nil, nil, err
	}
	openStart := openLoop(agents, ops, sched, func(int) int64 { return 0 }, open)
	after, err := f.settled(before)
	var cpu1 float64
	if err == nil {
		cpu1, err = f.cpuSeconds()
	}
	if err != nil {
		host.close()
		f.stop()
		return nil, nil, err
	}
	cpuPerOp := ratio((cpu1-cpu0)*1e6, float64(len(open.lat)))
	d := diff(before, after)
	for _, msg := range selfCheck(b.w, d, open) {
		b.problem("%s self-check: %s", b.w.Name, msg)
	}

	capPh := b.newPhase("capacity")
	capDur := b.total - openDur
	capStart := closedLoop(agents, b.st.op, capacityBase, capDur, capPh)
	host.close()
	closeAgents(agents)
	rss, err := f.hwmMB()
	if err != nil {
		f.stop()
		return nil, nil, err
	}
	if err := f.stop(); err != nil {
		return nil, nil, err
	}
	b.verifyJobs(open.jobs)
	b.verifyJobs(capPh.jobs)

	quietOpen := host.quietWindows(openStart, openDur)
	quietCap := host.quietWindows(capStart, capDur)
	lat, all := quietDist(open.lat, quietOpen), summarize(msOf(open.lat))
	lags := quietDist(open.lags, quietOpen)
	if lagUS := lags.P99 * 1e3; lagUS > b.p.LagBoundMicros {
		b.problem("generator lag p99 %.0f µs exceeds the %.0f µs bound: the run is invalid", lagUS, b.p.LagBoundMicros)
	}
	if lat.Beyond99 < 10 {
		b.problem("open-loop phase has %d samples in its quiet windows, %d beyond p99 (want at least 10)", lat.N, lat.Beyond99)
	}
	capacity := quietRate(capPh.lat, quietCap)
	cycles, _ := simTotals(capPh.jobs)
	simRate := float64(cycles) / capDur.Seconds() / 1e6
	setupMed := summarize(setupTimes).P50

	fmt.Printf("workload %s seed %d: %d setups, median setup %.3f s\n", b.w.Name, b.seed, len(setupTimes), setupMed)
	fmt.Printf("open loop at %.0f/s for %v: %d samples, p50 %.3f ms, p90 %.3f ms, p99 %.3f ms; in the %d quietest of %d windows (steal %.1f%% vs %.1f%%): %d samples (%d beyond p99), p50 %.3f ms, p90 %.3f ms, p99 %.3f ms, lag p50 %.0f µs, p99 %.0f µs\n",
		b.w.OpenRPS, openDur, all.N, all.P50, all.P90, all.P99, len(quietOpen), int(openDur/quietWindow),
		100*host.stealIn(quietOpen), 100*host.stealShare(openStart, openStart.Add(openDur)),
		lat.N, lat.Beyond99, lat.P50, lat.P90, lat.P99, lags.P50*1e3, lags.P99*1e3)
	fmt.Printf("closed loop, %d clients for %v: %d completions, %.1f/s in the quiet windows; %.3f Mcycles/s simulated\n",
		senders, capDur, len(capPh.lat), capacity, simRate)
	fmt.Printf("peak RSS over %d node(s): %.1f MiB; daemon CPU %.1f µs per op in the open loop\n", b.w.Nodes, rss, cpuPerOp)

	m := metrics{}
	if !traced {
		m.set("setup_s", setupMed, "s")
		m.set("cpu_us_per_op", cpuPerOp, "us")
		m.set("rss_mb", rss, "MiB")
	} else {
		// Latency and capacity are reported here, unbounded: on a
		// two-vCPU shared VM the host's drift over minutes (steal, disk
		// fsync latency) moves them by more than any bound a
		// regression gate could use, while daemon CPU per op does not.
		m.set("p50_ms", lat.P50, "ms")
		m.set("capacity_rps", capacity, "1/s")
		m.set("p90_ms", lat.P90, "ms")
		m.set("p99_ms", lat.P99, "ms")
		daemonLayers(d, open.served+len(open.jobs), m)
		m.set("loadgen.lag_p99_us", lags.P99*1e3, "us")
		m.set("sim_mcycles_per_s", simRate, "Mcycles/s")
		c, dl := simTotals(open.jobs)
		m.set("desim.cycles", float64(c), "count")
		m.set("desim.delivered", float64(dl), "count")
		if err := b.traceLayers(ops, sched, m); err != nil {
			return nil, nil, err
		}
	}
	res := &result{Metrics: m}
	for _, ph := range b.phases {
		res.Attempted += ph.attempted
		res.Failed += ph.failed
		for _, e := range ph.errs {
			b.problem("%s", e)
		}
	}
	res.Correct = res.Failed == 0 && len(b.problems) == 0
	fmt.Printf("attempted %d ops, failed %d\n", res.Attempted, res.Failed)
	return res, b.problems, nil
}

// settled scrapes /metricsz once every node's pool is idle, so the
// last job's completion is counted.
func (f *fleet) settled(before []server.Metricsz) ([]server.Metricsz, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		after, err := f.metricsz()
		if err != nil {
			return nil, err
		}
		idle := true
		for _, m := range after {
			idle = idle && m.Pool.Queued == 0 && m.Pool.Running == 0
		}
		if idle || time.Now().After(deadline) {
			return after, nil
		}
		time.Sleep(time.Millisecond)
	}
}

func simTotals(js []jobDone) (cycles int64, delivered uint64) {
	for _, j := range js {
		var r server.SimulateResult
		if json.Unmarshal(j.result, &r) == nil {
			cycles += r.Cycles
			delivered += r.Delivered
		}
	}
	return cycles, delivered
}

// verifyJobs recomputes every finished simulate job in process and
// fails the run on any byte that differs.
func (b *bench) verifyJobs(js []jobDone) {
	if len(js) == 0 {
		return
	}
	ph := b.newPhase("verify")
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(js); i += senders {
				want, _, err := simBody(js[i].req, nil, 0, 0)
				if err != nil || string(want) != string(js[i].result) {
					ph.fail("simulate seed %d: daemon result %.120s differs from in-process desim.Run %.120s (%v)",
						js[i].req.Seed, js[i].result, want, err)
				}
			}
		}(g)
	}
	wg.Wait()
}

// traceLayers replays the open-loop stream through replay nodes with
// every other request traced, then probes allocations and the public
// client.
func (b *bench) traceLayers(ops []op, sched []time.Duration, m metrics) error {
	tr := newTracer()
	rf, err := startReplay(b.dir, b.w.Nodes, b.w.Workers, tr)
	if err != nil {
		return err
	}
	agents := newAgents(rf.urls, rf.addrs, b.refs, b.p.pollInterval(), tr)
	// The warm set (synchronous predict and bounds requests) is traced
	// too: it is the workload's set-up work.
	warm := b.newPhase("replay-warm")
	for i, o := range b.st.warm {
		agents[0].send(o, time.Now(), 1<<40+int64(i), warm)
	}
	rf.markJournal()
	replay := b.newPhase("replay")
	// Half the requests are traced, picked by the top bit of a
	// multiplicative hash of the index: uncorrelated with the index
	// patterns that fix the workload's mix (batches, slow kinds).
	openLoop(agents, ops, sched, func(i int) int64 {
		if uint64(i)*0x9e3779b97f4a7c15>>63 == 0 {
			return int64(i) + 1
		}
		return 0
	}, replay)
	closeAgents(agents)
	jd := rf.journalDelta()

	traced, untraced := summarize(replay.latTraced), summarize(msOf(replay.lat))
	m.set("trace.overhead_ms", traced.P50-untraced.P50, "ms")
	spans := tr.snapshot()
	spanLayers(spans, m)
	var mi, me, bi, be int
	var simCycles int64
	for _, n := range rf.nodes {
		mi, me, bi, be = mi+n.modelIters, me+n.modelEvals, bi+n.boundsIters, be+n.boundsEvals
		simCycles += n.simCycles
	}
	m.set("desim.ns_per_cycle", ratio(float64(selfTimes(spans)["desim.run"].total), float64(simCycles)), "ns")
	m.set("model.iterations", ratio(float64(mi), float64(me)), "count")
	m.set("bounds.iterations", ratio(float64(bi), float64(be)), "count")
	fmt.Printf("replay: %d traced / %d untraced requests, p50 %.3f / %.3f ms; %d spans; replay journal %d records in %d commits\n",
		traced.N, untraced.N, traced.P50, untraced.P50, len(spans), jd.records, jd.commits)

	probeOps, err := b.st.ops(2*capacityBase, 40)
	if err == nil {
		err = clientProbe(rf.urls[0], probeOps, b.p.pollInterval(), b.newPhase("client"), m)
	}
	rf.stop()
	if err != nil {
		return err
	}
	if err := writeSpans(filepath.Join(b.traceDir, fmt.Sprintf("trace-%s-seed%d.jsonl", b.w.Name, b.seed)), spans); err != nil {
		return err
	}

	var preds []server.PredictRequest
	var bnds []server.BoundsRequest
	var sims []server.SimulateRequest
	for _, o := range append(append([]op(nil), b.st.warm...), ops...) {
		switch {
		case len(o.sims) > 0 && len(sims) < probeN:
			sims = append(sims, o.sims...)
		case o.path == "/v1/predict" && len(preds) < probeN:
			var r server.PredictRequest
			if json.Unmarshal(o.body, &r) == nil {
				preds = append(preds, r)
			}
		case o.path == "/v1/bounds" && len(bnds) < probeN:
			var r server.BoundsRequest
			if json.Unmarshal(o.body, &r) == nil {
				bnds = append(bnds, r)
			}
		}
	}
	return allocProbe(preds, bnds, sims, m)
}
