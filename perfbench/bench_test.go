package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"starperf/internal/jobs"
	"starperf/internal/model"
	"starperf/internal/routing"
	"starperf/internal/server"
	"starperf/internal/stargraph"
)

func testPlan(t *testing.T) *plan {
	t.Helper()
	p, err := loadPlan()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// streamBytes renders everything a run would send: warm set, the first
// ops of the measured stream and of the capacity phase, and the
// schedule.
func streamBytes(t *testing.T, w *workload, seed uint64) []byte {
	t.Helper()
	st, err := newStream(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	emit := func(o op) {
		buf.WriteString(o.path)
		buf.WriteByte(byte(o.entry))
		buf.Write(o.body)
	}
	for _, o := range st.warm {
		emit(o)
	}
	for _, from := range []uint64{0, capacityBase} {
		ops, err := st.ops(from, 200)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range ops {
			emit(o)
		}
	}
	for _, at := range st.schedule(w.OpenRPS, time.Second) {
		buf.WriteString(at.String())
	}
	return buf.Bytes()
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	p := testPlan(t)
	for _, name := range p.names() {
		w := p.Workloads[name]
		a, b := streamBytes(t, w, 11), streamBytes(t, w, 11)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 11 gave two different request streams", name)
		}
		if bytes.Equal(a, streamBytes(t, w, 12)) {
			t.Errorf("%s: seeds 11 and 12 gave the same request stream", name)
		}
	}
}

func TestPoissonMeanInterArrival(t *testing.T) {
	w := &workload{Name: "miss-mix", Nodes: 1}
	st, err := newStream(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	const rate = 1000.0
	sched := st.schedule(rate, 20*time.Second)
	mean := float64(sched[len(sched)-1]) / float64(len(sched)) / 1e9
	// 20000 exponential gaps: the sample mean's standard error is 0.7%.
	if math.Abs(mean*rate-1) > 0.03 {
		t.Errorf("mean inter-arrival %.6f s, want 1/%v ± 3%%", mean, rate)
	}
	for i := 1; i < len(sched); i++ {
		if sched[i] < sched[i-1] {
			t.Fatalf("schedule goes back in time at %d", i)
		}
	}
}

func TestSummarizeReportsSampleCount(t *testing.T) {
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(1000 - i) // 1..1000, unsorted
	}
	d := summarize(vals)
	if d.N != 1000 || d.P50 != 500 || d.P99 != 990 || d.Beyond99 != 10 {
		t.Errorf("summarize(1..1000) = %+v, want N 1000, p50 500, p99 990, 10 beyond p99", d)
	}
	if d := summarize(vals[:999]); d.Beyond99 >= 10 {
		t.Errorf("999 samples leave %d beyond p99; the run must flag fewer than 10", d.Beyond99)
	}
	if d := summarize(nil); d.N != 0 {
		t.Errorf("summarize(nil) = %+v", d)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", ID: 1, Req: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Req: 1, Start: 10, End: 30},
		{Name: "b", ID: 3, Parent: 1, Req: 1, Start: 20, End: 50},  // overlaps a
		{Name: "c", ID: 4, Parent: 1, Req: 1, Start: 90, End: 120}, // runs past the parent
		{Name: "d", ID: 5, Parent: 3, Req: 1, Start: 25, End: 35},
	}
	lt := selfTimes(spans)
	want := map[string][2]time.Duration{ // total, self
		"root": {100, 50}, // children cover [10,50] and [90,100]
		"a":    {20, 20},
		"b":    {30, 20},
		"c":    {30, 30},
		"d":    {10, 10},
	}
	for name, w := range want {
		if got := lt[name]; got.n != 1 || got.total != w[0] || got.self != w[1] {
			t.Errorf("%s: n %d total %v self %v, want total %v self %v", name, got.n, got.total, got.self, w[0], w[1])
		}
	}
	for _, s := range spans {
		var kids []span
		for _, c := range spans {
			if c.Parent == s.ID {
				kids = append(kids, c)
			}
		}
		if c := covered(s, kids); c > time.Duration(s.End-s.Start) || c < 0 {
			t.Errorf("children of %s cover %v of its %v", s.Name, c, time.Duration(s.End-s.Start))
		}
	}
}

func TestTracerSkipsUntracedRequests(t *testing.T) {
	tr := newTracer()
	if id := tr.begin("x", 0, 0); id != 0 {
		t.Errorf("request id 0 recorded span %d", id)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x", 1, 0))
	id := tr.begin("x", 7, 0)
	tr.end(id)
	if s := tr.snapshot(); len(s) != 1 || s[0].Req != 7 || s[0].End < s[0].Start {
		t.Errorf("spans = %+v", s)
	}
}

// The rate tables keep generated points on the stable side of the
// model's saturation rate.
func TestModelSatTable(t *testing.T) {
	top, err := stargraph.New(4)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := model.NewStarPaths(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vcs {
		for _, m := range msgLens {
			sat := modelSat[[3]int{4, v, m}]
			cfg := model.Config{Paths: paths, Top: top, Kind: routing.EnhancedNbc, V: v, MsgLen: m}
			cfg.Rate = 0.8 * sat
			if _, err := model.Evaluate(cfg); err != nil {
				t.Errorf("S4 V%d M%d at 0.8 × saturation: %v", v, m, err)
			}
			cfg.Rate = 1.05 * sat
			if _, err := model.Evaluate(cfg); !errors.Is(err, model.ErrSaturated) {
				t.Errorf("S4 V%d M%d at 1.05 × saturation: err %v, want saturated", v, m, err)
			}
		}
	}
}

// The in-process reference must produce the server's exact bytes and
// job ids, or every run would fail its output check.
func TestReferenceMatchesServer(t *testing.T) {
	srv, err := server.New(server.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Close(ctx); err != nil {
			t.Error(err)
		}
	})
	p := testPlan(t)
	st, err := newStream(p.Workloads["miss-mix"], 5)
	if err != nil {
		t.Fatal(err)
	}
	ops, err := st.ops(0, 60)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range ops {
		if o.path == "/v1/bounds" && bytes.Contains(o.body, []byte(`"n":5`)) {
			continue // S5 bounds take tens of milliseconds; S4 covers the mapping
		}
		resp, err := http.Post(ts.URL+o.path, "application/json", bytes.NewReader(o.body))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d err %v: %s", o.path, resp.StatusCode, err, body)
		}
		want, err := refBody(o)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want) {
			t.Errorf("%s %s:\nserver    %s\nreference %s", o.path, o.body, body, want)
		}
		if sum := resp.Header.Get(hdrResultSum); sum != resultSum(body) {
			t.Errorf("%s: result sum %s does not match the body", o.path, sum)
		}
		// The replay hashes the decoded wire body as is, so the
		// generated bodies must already be in canonical form.
		var id string
		if o.path == "/v1/bounds" {
			var r server.BoundsRequest
			if err = decodeStrict(o.body, &r); err == nil {
				id, err = jobs.Hash("bounds", r)
			}
		} else {
			var r server.PredictRequest
			if err = decodeStrict(o.body, &r); err == nil {
				id, err = jobs.Hash("predict", r)
			}
		}
		if err != nil || id != resp.Header.Get("X-Starperf-Job") {
			t.Errorf("%s: server job id %s, jobs.Hash of the wire body %s (%v)", o.path, resp.Header.Get("X-Starperf-Job"), id, err)
		}
	}
}

func TestSimulateReferenceMatchesDaemonShape(t *testing.T) {
	p := testPlan(t)
	st, err := newStream(p.Workloads["simulate-jobs"], 9)
	if err != nil {
		t.Fatal(err)
	}
	o, err := st.op(0)
	if err != nil {
		t.Fatal(err)
	}
	a, res, err := simBody(o.sims[0], nil, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := simBody(o.sims[0], nil, 0, 0)
	if err != nil || !bytes.Equal(a, b) {
		t.Fatalf("two in-process runs of one config differ (%v):\n%s\n%s", err, a, b)
	}
	if res.Cycles <= 0 || res.Delivered == 0 || res.Saturated {
		t.Errorf("short simulate job did no useful work: %+v", res)
	}
}

// Ten quarter-second windows, the third and seventh heavily stolen
// from: the quiet 60% are the six cleanest, and only samples due (or
// completing) inside them count.
func TestQuietWindows(t *testing.T) {
	start := time.Unix(1000, 0)
	h := &hostMeter{}
	var steal uint64
	for i := 0; i <= 40; i++ { // a reading every 62.5 ms
		h.at = append(h.at, start.Add(time.Duration(i)*quietWindow/4))
		h.total = append(h.total, uint64(i)*100)
		h.steal = append(h.steal, steal)
		switch w := i / 4; {
		case w == 2 || w == 6:
			steal += 50
		case w == 4 || w == 8:
			steal += 10
		case w%2 == 1:
			steal += 5
		}
	}
	q := h.quietWindows(start, 10*quietWindow)
	var got []int
	for _, iv := range q {
		got = append(got, int(iv.from.Sub(start)/quietWindow))
	}
	if want := []int{0, 1, 3, 5, 7, 9}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("quiet windows %v, want %v", got, want)
	}
	var samples []sample
	for w := 0; w < 10; w++ {
		at := start.Add(time.Duration(w)*quietWindow + quietWindow/2)
		samples = append(samples, sample{due: at, end: at, ms: float64(w)})
	}
	if d := quietDist(samples, q); d.N != 6 || d.P50 != 3 {
		t.Errorf("quietDist = %+v, want the 6 quiet samples with median 3", d)
	}
	if r := quietRate(samples, q); math.Abs(r-4) > 1e-9 {
		t.Errorf("quietRate = %v/s, want 6 completions in 1.5 s", r)
	}
}
