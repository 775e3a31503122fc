// Command starbench measures the simulator's per-cycle cost and the
// overhead of the observability layer on a fixed S_4 workload (the
// same EnhancedNbc/V=4/rate 0.02 configuration the determinism test
// pins), then writes the result as JSON.
//
// The checked-in BENCH_sim.json at the repo root is regenerated with:
//
//	go run ./cmd/starbench -out BENCH_sim.json
//
// -suite serve switches to the serving-layer microbenchmarks
// (content hashing, the two-tier result cache, job-pool dispatch),
// whose reference numbers live in BENCH_serve.json:
//
//	go run ./cmd/starbench -suite serve -out BENCH_serve.json
//
// -suite journal measures the durability layer (fsynced vs unsynced
// append, cold replay), written to BENCH_journal.json:
//
//	go run ./cmd/starbench -suite journal -out BENCH_journal.json
//
// -suite bounds measures the worst-case delay-bound engine
// (internal/bounds) across topology sizes, written to
// BENCH_bounds.json:
//
//	go run ./cmd/starbench -suite bounds -out BENCH_bounds.json
//
// -suite predict measures a /v1/predict cache miss layer by layer
// (model.Evaluate on S4–S7 and three tori, the interned topology and
// shared path-structure lookup, the graph build a table miss pays),
// written to BENCH_predict.json:
//
//	go run ./cmd/starbench -suite predict -out BENCH_predict.json
//
// The output is machine-shaped (ns/op varies across hosts) but
// structurally stable: no timestamps or host details, so diffs show
// only the measured numbers. The observer_overhead_pct field is the
// enabled-collector ("counters") overhead over the nil-observer
// baseline ("off"); the observability layer's ≤5% budget applies to
// the nil-observer path, which is the "off" variant itself.
package main

import (
	"flag"
	"fmt"
	"os"
	"testing"

	"starperf/internal/desim"
	"starperf/internal/obs"
	"starperf/internal/routing"
	"starperf/internal/stargraph"
)

// benchConfig mirrors bench_obs_test.go: the fixed S_4 workload.
func benchConfig() desim.Config {
	s4 := stargraph.MustNew(4)
	return desim.Config{
		Top:           s4,
		Spec:          routing.MustNew(routing.EnhancedNbc, s4, 4),
		Policy:        routing.PreferClassA,
		Rate:          0.02,
		MsgLen:        8,
		Seed:          12345,
		WarmupCycles:  1000,
		MeasureCycles: 5000,
	}
}

type variant struct {
	Name string
	Cfg  desim.Config
}

type row struct {
	nsPerOp     int64
	nsPerCycle  float64
	allocsPerOp int64
	bytesPerOp  int64
}

func measure(cfg desim.Config) (row, error) {
	var cycles int64
	var runErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := desim.Run(cfg)
			if err != nil {
				runErr = err
				b.FailNow()
			}
			cycles = res.Cycles
		}
	})
	if runErr != nil {
		return row{}, runErr
	}
	if r.N == 0 || cycles == 0 {
		return row{}, fmt.Errorf("benchmark ran zero iterations")
	}
	return row{
		nsPerOp:     r.NsPerOp(),
		nsPerCycle:  float64(r.NsPerOp()) / float64(cycles),
		allocsPerOp: r.AllocsPerOp(),
		bytesPerOp:  r.AllocedBytesPerOp(),
	}, nil
}

func main() {
	out := flag.String("out", "", "output path (- for stdout; default BENCH_<suite>.json)")
	suite := flag.String("suite", "sim", "benchmark suite: sim, serve, journal, bounds or predict")
	flag.Parse()

	switch *suite {
	case "serve":
		if *out == "" {
			*out = "BENCH_serve.json"
		}
		runServeSuite(*out)
		return
	case "journal":
		if *out == "" {
			*out = "BENCH_journal.json"
		}
		runJournalSuite(*out)
		return
	case "bounds":
		if *out == "" {
			*out = "BENCH_bounds.json"
		}
		runBoundsSuite(*out)
		return
	case "predict":
		if *out == "" {
			*out = "BENCH_predict.json"
		}
		runPredictSuite(*out)
		return
	case "sim":
		if *out == "" {
			*out = "BENCH_sim.json"
		}
	default:
		fmt.Fprintf(os.Stderr, "starbench: unknown suite %q (want sim, serve, journal, bounds or predict)\n", *suite)
		os.Exit(1)
	}

	variants := []variant{
		{"off", benchConfig()},
	}
	counters := benchConfig()
	counters.Observer = obs.New(obs.Options{TraceCap: -1})
	variants = append(variants, variant{"counters", counters})
	full := benchConfig()
	full.Observer = obs.New(obs.Options{})
	variants = append(variants, variant{"full", full})
	traced := benchConfig()
	traced.TraceCap = 64
	variants = append(variants, variant{"trace64", traced})

	rows := make([]row, len(variants))
	for i, v := range variants {
		r, err := measure(v.Cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "starbench: %s: %v\n", v.Name, err)
			os.Exit(1)
		}
		rows[i] = r
		fmt.Fprintf(os.Stderr, "starbench: %-8s %12d ns/op %8.1f ns/cycle %8d allocs/op\n",
			v.Name, r.nsPerOp, r.nsPerCycle, r.allocsPerOp)
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "starbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}

	// Hand-formatted JSON: fixed key order, no timestamps.
	overhead := 100 * (float64(rows[1].nsPerOp)/float64(rows[0].nsPerOp) - 1)
	fmt.Fprintln(w, "{")
	fmt.Fprintln(w, `  "workload": "S4 EnhancedNbc V=4 rate=0.02 M=8 warmup=1000 measure=5000 seed=12345",`)
	fmt.Fprintln(w, `  "command": "go run ./cmd/starbench -out BENCH_sim.json",`)
	fmt.Fprintf(w, "  \"observer_overhead_pct\": %.2f,\n", overhead)
	fmt.Fprintln(w, `  "variants": [`)
	for i, v := range variants {
		r := rows[i]
		comma := ","
		if i == len(variants)-1 {
			comma = ""
		}
		fmt.Fprintf(w, "    {\"name\": %q, \"ns_per_op\": %d, \"ns_per_cycle\": %.1f, \"allocs_per_op\": %d, \"bytes_per_op\": %d}%s\n",
			v.Name, r.nsPerOp, r.nsPerCycle, r.allocsPerOp, r.bytesPerOp, comma)
	}
	fmt.Fprintln(w, "  ]")
	fmt.Fprintln(w, "}")
}
