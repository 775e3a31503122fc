package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
	"time"
)

// plan.json fixes everything a run depends on besides the seed and the
// run length: each workload's absolute open-loop rate, its node count,
// the warm-set sizes, the self-check bounds and the generator's lag
// bound. The parent and a change therefore face the same load. For
// readers it also records why each workload was chosen, the held-out
// seed for later claims and the layer → end-to-end prediction map,
// which the code does not read.
//
//go:embed plan.json
var planJSON []byte

type plan struct {
	OpenShare      float64              `json:"open_share"`
	LagBoundMicros float64              `json:"lag_bound_us"`
	PollMicros     int                  `json:"poll_interval_us"`
	Workloads      map[string]*workload `json:"workloads"`
}

type workload struct {
	Name            string  `json:"-"`
	Nodes           int     `json:"nodes"`
	Setups          int     `json:"setups"`
	Workers         int     `json:"workers"`
	OpenRPS         float64 `json:"open_rps"`
	Warm            int     `json:"warm"`
	HitShare        float64 `json:"hit_share"`
	BatchEvery      int     `json:"batch_every"`
	BatchSize       int     `json:"batch_size"`
	MinHitRatio     float64 `json:"min_hit_ratio"`
	MaxHitRatio     float64 `json:"max_hit_ratio"`
	MinForwardRatio float64 `json:"min_forward_ratio"`
	MaxForwardRatio float64 `json:"max_forward_ratio"`
}

func loadPlan() (*plan, error) {
	var p plan
	if err := json.Unmarshal(planJSON, &p); err != nil {
		return nil, fmt.Errorf("plan.json: %w", err)
	}
	for name, w := range p.Workloads {
		w.Name = name
		if w.Nodes < 1 || w.Workers < 1 || w.OpenRPS <= 0 || w.Setups < 1 {
			return nil, fmt.Errorf("plan.json: workload %s needs nodes, workers, open_rps and setups", name)
		}
	}
	if p.OpenShare <= 0 || p.OpenShare >= 1 || p.PollMicros <= 0 {
		return nil, fmt.Errorf("plan.json: open_share and poll_interval_us out of range")
	}
	return &p, nil
}

func (p *plan) names() []string {
	var out []string
	for name := range p.Workloads {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func (p *plan) pollInterval() time.Duration {
	return time.Duration(p.PollMicros) * time.Microsecond
}
