package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"starperf/internal/server"
)

// A request stream is a pure function of (workload, seed, index): op i
// is drawn from its own PCG stream, so the bytes a run sends never
// depend on which sender goroutine sends them or on timing.

const (
	saltWarm     = 0x5741524d // warm-set entries
	saltOps      = 0x4f505321 // measured and capacity ops
	saltSchedule = 0x53434844 // Poisson inter-arrival gaps
	// capacityBase offsets the closed-loop phase's op indices past any
	// open-loop phase, so a miss workload keeps missing there.
	capacityBase = 1 << 32
)

// modelSat is model.SaturationRate (EnhancedNbc, bisected between 1e-5
// and 0.2) per (n, V, M); rates are drawn as fractions of it so every
// predict request sits below saturation.
var modelSat = map[[3]int]float64{
	{4, 6, 32}: 0.016844, {4, 6, 64}: 0.008898, {4, 9, 32}: 0.019415,
	{4, 9, 64}: 0.010249, {4, 12, 32}: 0.021068, {4, 12, 64}: 0.011118,
	{5, 6, 32}: 0.015104, {5, 6, 64}: 0.008091, {5, 9, 32}: 0.017767,
	{5, 9, 64}: 0.009508, {5, 12, 32}: 0.019427, {5, 12, 64}: 0.010391,
	{6, 6, 32}: 0.013547, {6, 6, 64}: 0.007362, {6, 9, 32}: 0.016333,
	{6, 9, 64}: 0.008862, {6, 12, 32}: 0.017992, {6, 12, 64}: 0.009756,
}

// boundsCap is bounds.Capacity per (n, M); it does not depend on V.
var boundsCap = map[[2]int]float64{
	{4, 32}: 0.008243, {4, 64}: 0.004122, {5, 32}: 0.005287, {5, 64}: 0.002644,
}

var (
	vcs     = []int{6, 9, 12}
	msgLens = []int{32, 64}
)

// op is one generated request: a compute POST, or a batch of simulate
// jobs. warm indexes the warm set (-1 for a fresh op), so its response
// can be checked against the reference body computed in process.
type op struct {
	path  string
	body  []byte
	entry int
	warm  int
	sims  []server.SimulateRequest
}

// stream generates one workload's requests for one seed.
type stream struct {
	w    *workload
	seed uint64
	warm []op
}

func newStream(w *workload, seed uint64) (*stream, error) {
	s := &stream{w: w, seed: seed}
	for i := 0; i < w.Warm; i++ {
		r := s.rng(saltWarm, uint64(i))
		var o op
		var err error
		if w.Name == "hit-mix" && r.Float64() < 0.1 {
			o, err = boundsOp(r, 4)
		} else {
			ns := []int{4, 5, 6}
			if w.Nodes > 1 {
				ns = []int{4, 5}
			}
			o, err = predictOp(r, ns[r.IntN(len(ns))])
		}
		if err != nil {
			return nil, err
		}
		o.warm = i
		o.entry = r.IntN(w.Nodes)
		s.warm = append(s.warm, o)
	}
	return s, nil
}

func (s *stream) rng(salt, i uint64) *rand.Rand {
	return rand.New(rand.NewPCG(s.seed^salt*0x9e3779b97f4a7c15, i))
}

// missSlots fixes miss-mix's composition per 50 consecutive requests:
// 27 S5, 8 S4 and 5 S6 predicts, 9 S4 and 1 S5 bounds. The kind of a
// request follows its index and only its parameters follow the seed,
// so every seed offers the same mix and seeds differ only in operating
// points and arrival times.
var missSlots = func() []func(*rand.Rand) (op, error) {
	var out []func(*rand.Rand) (op, error)
	add := func(k int, f func(*rand.Rand) (op, error)) {
		for ; k > 0; k-- {
			out = append(out, f)
		}
	}
	add(27, func(r *rand.Rand) (op, error) { return predictOp(r, 5) })
	add(9, func(r *rand.Rand) (op, error) { return boundsOp(r, 4) })
	add(8, func(r *rand.Rand) (op, error) { return predictOp(r, 4) })
	add(5, func(r *rand.Rand) (op, error) { return predictOp(r, 6) })
	add(1, func(r *rand.Rand) (op, error) { return boundsOp(r, 5) })
	return out
}()

// op returns request i of the workload's measured stream. As in
// miss-mix, what kind of request i is follows from i; the seed draws
// its parameters.
func (s *stream) op(i uint64) (op, error) {
	r := s.rng(saltOps, i)
	var o op
	var err error
	switch s.w.Name {
	case "hit-mix":
		o = s.warm[r.IntN(len(s.warm))]
	case "miss-mix":
		// Stride 7 is coprime with 50: neighbouring requests get
		// different kinds, so the one slow kind never comes in runs.
		o, err = missSlots[(i*7)%uint64(len(missSlots))](r)
		o.warm = -1
	case "simulate-jobs":
		k := 1
		if s.w.BatchEvery > 0 && i%uint64(s.w.BatchEvery) == 0 {
			k = s.w.BatchSize
		}
		o, err = simulateOp(r, i, k)
	case "ring-mix":
		// The golden-ratio sequence spreads hits evenly at HitShare.
		if _, f := math.Modf(float64(i) * 0.6180339887498949); f < s.w.HitShare {
			o = s.warm[r.IntN(len(s.warm))]
		} else {
			o, err = predictOp(r, 4+r.IntN(2))
			o.warm = -1
		}
		o.entry = r.IntN(s.w.Nodes)
	default:
		err = fmt.Errorf("unknown workload %q", s.w.Name)
	}
	return o, err
}

// ops materialises requests [from, from+n).
func (s *stream) ops(from uint64, n int) ([]op, error) {
	out := make([]op, n)
	for i := range out {
		o, err := s.op(from + uint64(i))
		if err != nil {
			return nil, err
		}
		out[i] = o
	}
	return out, nil
}

// schedule draws a Poisson arrival schedule at rate per second over d:
// offsets from the phase start of every arrival before d.
func (s *stream) schedule(rate float64, d time.Duration) []time.Duration {
	r := s.rng(saltSchedule, uint64(math.Float64bits(rate)))
	var out []time.Duration
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, at)
	}
}

// frac draws a rate fraction in [0.2, 0.8).
func frac(r *rand.Rand) float64 { return 0.2 + 0.6*r.Float64() }

func predictOp(r *rand.Rand, n int) (op, error) {
	v, m := vcs[r.IntN(len(vcs))], msgLens[r.IntN(len(msgLens))]
	req := server.PredictRequest{
		Topo: server.TopoSpec{Kind: "star", N: n},
		V:    v, MsgLen: m, Rate: frac(r) * modelSat[[3]int{n, v, m}],
	}
	body, err := json.Marshal(req)
	return op{path: "/v1/predict", body: body, warm: -1}, err
}

func boundsOp(r *rand.Rand, n int) (op, error) {
	v, m := vcs[r.IntN(len(vcs))], msgLens[r.IntN(len(msgLens))]
	req := server.BoundsRequest{
		Topo: server.TopoSpec{Kind: "star", N: n},
		V:    v, MsgLen: m, Rate: frac(r) * boundsCap[[2]int{n, m}],
		// The server's defaults, spelled out so the wire body is
		// already canonical.
		BufCap: 2, LinkBW: 1,
	}
	body, err := json.Marshal(req)
	return op{path: "/v1/bounds", body: body, warm: -1}, err
}

// simulateOp draws k short simulations with distinct seeds for op i:
// S5 when i plus the item's position is a multiple of ten, S4
// otherwise. k > 1 goes out as one POST /v1/jobs:batch.
func simulateOp(r *rand.Rand, i uint64, k int) (op, error) {
	o := op{path: "/v1/simulate", warm: -1}
	for item := 0; item < k; item++ {
		n := 4
		if (i+uint64(item))%10 == 0 {
			n = 5
		}
		v := vcs[r.IntN(len(vcs))]
		o.sims = append(o.sims, server.SimulateRequest{
			Topo: server.TopoSpec{Kind: "star", N: n},
			V:    v, MsgLen: 32,
			Rate:   (0.2 + 0.3*r.Float64()) * modelSat[[3]int{n, v, 32}],
			BufCap: 2, Seed: r.Uint64() | 1,
			Warmup: 200 + r.Int64N(200), Measure: 400 + r.Int64N(400), Drain: 120000,
		})
	}
	if k == 1 {
		body, err := json.Marshal(o.sims[0])
		o.body = body
		return o, err
	}
	type item struct {
		Kind   string                 `json:"kind"`
		Config server.SimulateRequest `json:"config"`
	}
	var batch struct {
		Items []item `json:"items"`
	}
	for _, s := range o.sims {
		batch.Items = append(batch.Items, item{Kind: "simulate", Config: s})
	}
	body, err := json.Marshal(batch)
	o.path, o.body = "/v1/jobs:batch", body
	return o, err
}
