package main

import (
	"context"
	"fmt"
	"os"
	"testing"

	"starperf/internal/model"
	"starperf/internal/routing"
	"starperf/internal/server"
	"starperf/internal/stargraph"
)

// The predict suite: the cost of a /v1/predict cache miss, layer by
// layer — one model.Evaluate on S4–S7 against prebuilt structures,
// the per-request lookup of those structures (the topology from the
// server's interned table, the path structure shared per n), and the
// star-graph build a table miss (or a star
// too large to retain) pays instead. Written to BENCH_predict.json in
// the same machine-shaped, timestamp-free format as the other suites.

// predictPoint is one model operating point per star size: V=8 so
// every size's escape channels fit, M=32, at about a third of the
// model's saturation rate.
var predictPoints = []struct {
	n    int
	rate float64
}{{4, 0.01}, {5, 0.006}, {6, 0.004}, {7, 0.003}}

// runPredictSuite measures the predict benchmarks and writes the JSON
// report to out ("-" for stdout).
func runPredictSuite(out string) {
	type predictRow struct {
		name        string
		iterations  int
		nsPerOp     int64
		allocsPerOp int64
		bytesPerOp  int64
	}
	srv, err := server.New(server.Config{Workers: 1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "starbench: %v\n", err)
		os.Exit(1)
	}
	defer srv.Close(context.Background())
	var rows []predictRow
	bench := func(name string, iterations int, f func() error) {
		var err error
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err = f(); err != nil {
					b.FailNow()
				}
			}
		})
		if err != nil || r.N == 0 {
			fmt.Fprintf(os.Stderr, "starbench: %s: %v (%d iterations)\n", name, err, r.N)
			os.Exit(1)
		}
		rows = append(rows, predictRow{name, iterations, r.NsPerOp(), r.AllocsPerOp(), r.AllocedBytesPerOp()})
		fmt.Fprintf(os.Stderr, "starbench: %-16s %12d ns/op %8d allocs/op %10d B/op\n",
			name, r.NsPerOp(), r.AllocsPerOp(), r.AllocedBytesPerOp())
	}
	for _, p := range predictPoints {
		spec := server.TopoSpec{Kind: "star", N: p.n}
		top, paths, err := srv.ModelInputs(spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "starbench: S%d: %v\n", p.n, err)
			os.Exit(1)
		}
		cfg := model.Config{Paths: paths, Top: top, Kind: routing.EnhancedNbc, V: 8, MsgLen: 32, Rate: p.rate}
		res, err := model.Evaluate(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "starbench: S%d: %v\n", p.n, err)
			os.Exit(1)
		}
		bench(fmt.Sprintf("model_eval_s%d", p.n), res.Iterations, func() error {
			_, err := model.Evaluate(cfg)
			return err
		})
		bench(fmt.Sprintf("lookup_s%d", p.n), 0, func() error {
			_, _, err := srv.ModelInputs(spec)
			return err
		})
		bench(fmt.Sprintf("graph_build_s%d", p.n), 0, func() error {
			_, err := stargraph.New(p.n)
			return err
		})
	}

	w := os.Stdout
	if out != "-" {
		f, err := os.Create(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "starbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	fmt.Fprintln(w, "{")
	fmt.Fprintln(w, `  "workload": "a /v1/predict miss by layer: model.Evaluate (EnhancedNbc, V=8, M=32, ~1/3 of saturation) on S4-S7, the per-request topology (interned table) + path structure (shared per n) lookup, and the star-graph build a table miss pays",`)
	fmt.Fprintln(w, `  "command": "go run ./cmd/starbench -suite predict -out BENCH_predict.json",`)
	fmt.Fprintln(w, `  "variants": [`)
	for i, r := range rows {
		comma := ","
		if i == len(rows)-1 {
			comma = ""
		}
		fmt.Fprintf(w, "    {\"name\": %q, \"iterations\": %d, \"ns_per_op\": %d, \"allocs_per_op\": %d, \"bytes_per_op\": %d}%s\n",
			r.name, r.iterations, r.nsPerOp, r.allocsPerOp, r.bytesPerOp, comma)
	}
	fmt.Fprintln(w, "  ]")
	fmt.Fprintln(w, "}")
}
