package main

import (
	"encoding/json"
	"errors"

	"starperf/internal/bounds"
	"starperf/internal/desim"
	"starperf/internal/model"
	"starperf/internal/routing"
	"starperf/internal/server"
	"starperf/internal/stargraph"
)

// The in-process reference: each function computes the response body
// starperfd must return for a request, through the same public engine
// entry points its handlers call, and marshals the exported wire type
// exactly as the server stores it. A daemon body that differs by one
// byte is a failed op. The replay nodes (replay.go) serve these bodies
// too, with tr recording one span per engine call (nil: untraced).

// predictBody mirrors the server's predict run: star paths, EnhancedNbc
// routing, model.Evaluate; a saturated point is a valid answer.
func predictBody(req server.PredictRequest, tr *tracer, rid, parent int64) ([]byte, int, error) {
	top, err := stargraph.New(req.Topo.N)
	if err != nil {
		return nil, 0, err
	}
	sp := tr.begin("model.paths", rid, parent)
	paths, err := model.NewStarPaths(req.Topo.N)
	tr.end(sp)
	if err != nil {
		return nil, 0, err
	}
	sp = tr.begin("model.eval", rid, parent)
	res, err := model.Evaluate(model.Config{
		Paths: paths, Top: top, Kind: routing.EnhancedNbc,
		V: req.V, MsgLen: req.MsgLen, Rate: req.Rate,
	})
	tr.end(sp)
	out := &server.PredictResult{Saturated: true}
	iters := 0
	switch {
	case errors.Is(err, model.ErrSaturated):
	case err != nil:
		return nil, 0, err
	default:
		iters = res.Iterations
		out = &server.PredictResult{
			LatencyCycles: res.Latency,
			NetLatency:    res.NetLatency,
			SourceWait:    res.SourceWait,
			ChannelWait:   res.ChannelWait,
			Multiplexing:  res.Multiplexing,
			Utilization:   res.Utilization,
			MeanBlocking:  res.MeanBlocking,
			Converged:     res.Converged,
		}
	}
	body, err := json.Marshal(out)
	return body, iters, err
}

// boundsBody mirrors the server's bounds run.
func boundsBody(req server.BoundsRequest, tr *tracer, rid, parent int64) ([]byte, int, error) {
	top, err := stargraph.New(req.Topo.N)
	if err != nil {
		return nil, 0, err
	}
	sp := tr.begin("bounds.eval", rid, parent)
	res, err := bounds.Evaluate(bounds.Config{
		Top: top, Kind: routing.EnhancedNbc,
		V: req.V, MsgLen: req.MsgLen, Rate: req.Rate,
		BufCap: req.BufCap, LinkBW: req.LinkBW,
	})
	tr.end(sp)
	if errors.Is(err, bounds.ErrUnboundable) {
		body, err := json.Marshal(&server.BoundsResult{Unboundable: true})
		return body, 0, err
	}
	if err != nil {
		return nil, 0, err
	}
	out := &server.BoundsResult{
		WorstBound:  res.WorstCase,
		Utilization: res.Utilization,
		HopDelay:    res.HopDelay,
		Residual:    res.Residual,
		Feedforward: res.Feedforward,
		Iterations:  res.Iterations,
		Flows:       res.Flows,
		Channels:    res.Channels,
	}
	for _, fb := range res.Classes {
		out.Classes = append(out.Classes, server.BoundsClass{Hops: fb.Hops, Flows: fb.Flows, Bound: fb.Bound})
	}
	body, err := json.Marshal(out)
	return body, res.Iterations, err
}

// simBody mirrors the server's simulate run.
func simBody(req server.SimulateRequest, tr *tracer, rid, parent int64) ([]byte, *server.SimulateResult, error) {
	top, err := stargraph.New(req.Topo.N)
	if err != nil {
		return nil, nil, err
	}
	spec, err := routing.New(routing.EnhancedNbc, top, req.V)
	if err != nil {
		return nil, nil, err
	}
	sp := tr.begin("desim.run", rid, parent)
	res, err := desim.Run(desim.Config{
		Top: top, Spec: spec,
		Rate: req.Rate, MsgLen: req.MsgLen, BufCap: req.BufCap, Seed: req.Seed,
		WarmupCycles: req.Warmup, MeasureCycles: req.Measure, DrainCycles: req.Drain,
		MaxMsgAge: req.MaxMsgAge,
	})
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	out := &server.SimulateResult{
		MeanLatency:  res.Latency.Mean(),
		MinLatency:   res.Latency.Min(),
		MaxLatency:   res.Latency.Max(),
		Measured:     res.MeasuredDelivered,
		Delivered:    res.Delivered,
		AcceptedRate: float64(res.DeliveredInWindow) / float64(req.Measure) / float64(top.N()),
		Cycles:       res.Cycles,
		Saturated:    res.Saturated(),
		Aborted:      res.Aborted,
		AbortReason:  res.AbortReason,
	}
	if res.LatencyHist != nil && res.LatencyHist.Total() > 0 {
		out.P50Latency = res.LatencyHist.Quantile(0.50)
		out.P95Latency = res.LatencyHist.Quantile(0.95)
		out.P99Latency = res.LatencyHist.Quantile(0.99)
	}
	body, err := json.Marshal(out)
	return body, out, err
}

// refBody computes the reference body of a synchronous op.
func refBody(o op) ([]byte, error) {
	switch o.path {
	case "/v1/predict":
		var req server.PredictRequest
		if err := json.Unmarshal(o.body, &req); err != nil {
			return nil, err
		}
		body, _, err := predictBody(req, nil, 0, 0)
		return body, err
	case "/v1/bounds":
		var req server.BoundsRequest
		if err := json.Unmarshal(o.body, &req); err != nil {
			return nil, err
		}
		body, _, err := boundsBody(req, nil, 0, 0)
		return body, err
	}
	return nil, errors.New("no reference body for " + o.path)
}
