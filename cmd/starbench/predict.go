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
// layer — one model.Evaluate on S4–S7 and on three tori against
// prebuilt structures, the per-request lookup of those structures
// (the topology from the server's interned table, the path structure
// shared per n or per (k, n)), and the star-graph build a table miss
// (or a star too large to retain) pays instead. Written to
// BENCH_predict.json in the same machine-shaped, timestamp-free
// format as the other suites.

// predictPoints are the model operating points. Stars run at V=8 so
// every size's escape channels fit, M=32, at about a third of the
// model's saturation rate; the tori share one point, V=18 (T32x2's
// escape minimum plus one class-a channel), M=32 and rate 0.002.
var predictPoints = []struct {
	name string
	spec server.TopoSpec
	v    int
	rate float64
}{
	{"s4", server.TopoSpec{Kind: "star", N: 4}, 8, 0.01},
	{"s5", server.TopoSpec{Kind: "star", N: 5}, 8, 0.006},
	{"s6", server.TopoSpec{Kind: "star", N: 6}, 8, 0.004},
	{"s7", server.TopoSpec{Kind: "star", N: 7}, 8, 0.003},
	{"t8x2", server.TopoSpec{Kind: "torus", K: 8, Dim: 2}, 18, 0.002},
	{"t16x3", server.TopoSpec{Kind: "torus", K: 16, Dim: 3}, 18, 0.002},
	{"t32x2", server.TopoSpec{Kind: "torus", K: 32, Dim: 2}, 18, 0.002},
}

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
		top, paths, err := srv.ModelInputs(p.spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "starbench: %s: %v\n", p.name, err)
			os.Exit(1)
		}
		cfg := model.Config{Paths: paths, Top: top, Kind: routing.EnhancedNbc, V: p.v, MsgLen: 32, Rate: p.rate}
		res, err := model.Evaluate(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "starbench: %s: %v\n", p.name, err)
			os.Exit(1)
		}
		bench("model_eval_"+p.name, res.Iterations, func() error {
			_, err := model.Evaluate(cfg)
			return err
		})
		bench("lookup_"+p.name, 0, func() error {
			_, _, err := srv.ModelInputs(p.spec)
			return err
		})
		if p.spec.Kind == "star" {
			bench("graph_build_"+p.name, 0, func() error {
				_, err := stargraph.New(p.spec.N)
				return err
			})
		}
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
	fmt.Fprintln(w, `  "workload": "a /v1/predict miss by layer: model.Evaluate (EnhancedNbc; S4-S7 at V=8, M=32, ~1/3 of saturation; T8x2, T16x3, T32x2 at V=18, M=32, rate 0.002), the per-request topology (interned table) + path structure (shared per n or (k, n)) lookup, and the star-graph build a table miss pays",`)
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
