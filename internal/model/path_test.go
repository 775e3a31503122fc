package model

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"starperf/internal/routing"

	"starperf/internal/perm"
	"starperf/internal/stargraph"
	"starperf/internal/torus"
)

func TestStarPathsClasses(t *testing.T) {
	for n := 2; n <= 8; n++ {
		sp, err := NewStarPaths(n)
		if err != nil {
			t.Fatal(err)
		}
		var sum uint64
		for _, c := range sp.Classes() {
			if c.H < 1 || c.H > stargraph.Diameter(n) {
				t.Fatalf("class %s at distance %d", c.Label, c.H)
			}
			sum += c.Count
		}
		if sum != perm.Factorial(n)-1 {
			t.Fatalf("n=%d class populations sum to %d, want n!-1=%d",
				n, sum, perm.Factorial(n)-1)
		}
	}
	if _, err := NewStarPaths(1); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := NewStarPaths(13); err == nil {
		t.Fatal("n=13 accepted")
	}
}

// TestPathCountsMatchDFS verifies the DP's minimal-path counts
// against explicit DFS enumeration on the real graph.
func TestPathCountsMatchDFS(t *testing.T) {
	g := stargraph.MustNew(5)
	sp, err := NewStarPaths(5)
	if err != nil {
		t.Fatal(err)
	}
	countPaths := func(dst int) float64 {
		var dfs func(cur int) float64
		dfs = func(cur int) float64 {
			if cur == dst {
				return 1
			}
			var n float64
			for _, dim := range g.ProfitableDims(cur, dst, nil) {
				n += dfs(g.Neighbor(cur, dim))
			}
			return n
		}
		return dfs(0)
	}
	for idx, c := range sp.Classes() {
		// find a representative destination of this class
		rep := -1
		for v := 1; v < g.N(); v++ {
			if typeOf(g.Perm(v)).key() == c.Label {
				rep = v
				break
			}
		}
		if rep < 0 {
			t.Fatalf("class %s unpopulated", c.Label)
		}
		want := countPaths(rep)
		if got := sp.NumPaths(idx); math.Abs(got-want) > 1e-9 {
			t.Fatalf("class %s: %v paths by DP, %v by DFS", c.Label, got, want)
		}
	}
}

// TestDPMatchesExact is the central correctness test of the model's
// path machinery: the cycle-type dynamic program must agree exactly
// with brute-force enumeration of all minimal paths, for a
// non-trivial evaluator that uses every Hop field.
func TestDPMatchesExact(t *testing.T) {
	g := stargraph.MustNew(5)
	sp, err := NewStarPaths(5)
	if err != nil {
		t.Fatal(err)
	}
	eval := func(h Hop) float64 {
		v := 0.03*float64(h.F) + 0.011*float64(h.D) + 0.007*float64(h.NegTaken)
		if h.HopNeg {
			v += 0.0042
		}
		return v
	}
	for idx, c := range sp.Classes() {
		for c0 := 0; c0 <= 1; c0++ {
			dp := sp.BlockSum(idx, c0, eval)
			exact := sp.ExactStarBlockSum(g, idx, c0, eval)
			if math.Abs(dp-exact) > 1e-9 {
				t.Fatalf("class %s c0=%d: DP %v, exact %v", c.Label, c0, dp, exact)
			}
		}
	}
}

func TestBlockSumZeroEval(t *testing.T) {
	sp, _ := NewStarPaths(6)
	for idx := range sp.Classes() {
		if got := sp.BlockSum(idx, 0, func(Hop) float64 { return 0 }); got != 0 {
			t.Fatalf("zero evaluator produced %v", got)
		}
	}
}

func TestBlockSumCountsHops(t *testing.T) {
	// An evaluator returning 1 per hop must sum to the class distance.
	sp, _ := NewStarPaths(6)
	for idx, c := range sp.Classes() {
		got := sp.BlockSum(idx, 1, func(Hop) float64 { return 1 })
		if math.Abs(got-float64(c.H)) > 1e-9 {
			t.Fatalf("class %s: hop count %v, want %d", c.Label, got, c.H)
		}
	}
}

func TestHopFieldConsistency(t *testing.T) {
	// Within BlockSum, D must run h, h-1, …, 1 and NegTaken must
	// follow the alternation law for the source colour.
	sp, _ := NewStarPaths(5)
	for idx, c := range sp.Classes() {
		for c0 := 0; c0 <= 1; c0++ {
			// F varies across path sets at the same depth (the whole
			// point of eq. 7); NegTaken and HopNeg are functions of
			// depth alone via colour alternation.
			seen := map[int]bool{}
			sp.BlockSum(idx, c0, func(h Hop) float64 {
				seen[h.D] = true
				k := c.H - h.D + 1
				if h.NegTaken != negsAfter(c0, k-1) || h.HopNeg != hopNegAt(c0, k) {
					t.Fatalf("class %s c0=%d hop k=%d: %+v", c.Label, c0, k, h)
				}
				if h.F < 1 {
					t.Fatalf("class %s: non-positive fanout %+v", c.Label, h)
				}
				return 0
			})
			for d := 1; d <= c.H; d++ {
				if !seen[d] {
					t.Fatalf("class %s c0=%d: no hop at D=%d", c.Label, c0, d)
				}
			}
		}
	}
}

func TestCubePaths(t *testing.T) {
	cp, err := NewCubePaths(7)
	if err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for _, c := range cp.Classes() {
		sum += c.Count
	}
	if sum != 127 {
		t.Fatalf("Q7 class populations sum to %d, want 127", sum)
	}
	// h=3 class: F must equal D at every hop, and hops sum to 3.
	idx := 2
	if cp.Classes()[idx].H != 3 {
		t.Fatalf("class order unexpected")
	}
	hops := 0
	cp.BlockSum(idx, 0, func(h Hop) float64 {
		hops++
		if h.F != h.D {
			t.Fatalf("cube hop F=%d D=%d", h.F, h.D)
		}
		return 0
	})
	if hops != 3 {
		t.Fatalf("cube class h=3 evaluated %d hops", hops)
	}
	if _, err := NewCubePaths(0); err == nil {
		t.Fatal("m=0 accepted")
	}
}

func TestNegsAlternation(t *testing.T) {
	// negsAfter(c0, j) − negsAfter(c0, j−1) must be 1 exactly when
	// hop j is negative.
	for c0 := 0; c0 <= 1; c0++ {
		for j := 1; j <= 10; j++ {
			delta := negsAfter(c0, j) - negsAfter(c0, j-1)
			neg := hopNegAt(c0, j)
			if (delta == 1) != neg || delta < 0 || delta > 1 {
				t.Fatalf("c0=%d j=%d delta=%d neg=%v", c0, j, delta, neg)
			}
		}
	}
}

func BenchmarkStarPathsBuildS8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := buildStarPaths(8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBlockSumS8(b *testing.B) {
	sp, _ := NewStarPaths(8)
	eval := func(h Hop) float64 { return 0.01 * float64(h.F) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for idx := range sp.Classes() {
			sp.BlockSum(idx, i&1, eval)
		}
	}
}

// TestPlanFitsStack: every class plan up to S_12 fits BlockSum's
// fixed value array, and NewStarPaths hands out one shared instance.
func TestPlanFitsStack(t *testing.T) {
	for n := 2; n <= 12; n++ {
		sp, err := NewStarPaths(n)
		if err != nil {
			t.Fatal(err)
		}
		for idx, p := range sp.plans {
			if steps := int(p.hi - p.lo); steps > maxPlanSteps {
				t.Fatalf("S%d class %s: %d steps > %d", n, sp.classes[idx].Label, steps, maxPlanSteps)
			}
		}
		if again, _ := NewStarPaths(n); again != sp {
			t.Fatalf("S%d built twice", n)
		}
	}
	if got := len(enumerateTypes(12)); got != 195 {
		t.Fatalf("S12 has %d cycle types, the maxPlanSteps comment says 195", got)
	}
}

// TestBlockSumAllocs gates the compiled plan: BlockSum allocates
// nothing, on the star graph or the torus.
func TestBlockSumAllocs(t *testing.T) {
	sp, err := NewStarPaths(7)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := NewTorusPaths(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	eval := func(h Hop) float64 { return 0.01 * float64(h.F) }
	for _, ps := range []PathStructure{sp, tp} {
		allocs := testing.AllocsPerRun(20, func() {
			for idx := range ps.Classes() {
				ps.BlockSum(idx, idx&1, eval)
			}
		})
		if allocs != 0 {
			t.Fatalf("%T.BlockSum allocates %v times per sweep, want 0", ps, allocs)
		}
	}
}

// TestSharedStructuresConcurrent runs eight goroutines through one
// StarPaths, one TorusPaths and their graphs — the sharing the
// server's topology table and the shared path structures rely on —
// and checks each sees the serial results bit for bit (run under
// -race in CI).
func TestSharedStructuresConcurrent(t *testing.T) {
	sp, err := NewStarPaths(6)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := NewTorusPaths(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := stargraph.MustNew(6)
	tg := torus.MustNew(8, 3)
	cfg := func(i int) Config {
		if i%2 == 1 {
			return Config{Paths: tp, Top: tg, Kind: routing.EnhancedNbc, V: 8 + i%3, MsgLen: 32, Rate: 0.001 * float64(1+i%5)}
		}
		return Config{Paths: sp, Top: g, Kind: routing.EnhancedNbc, V: 6 + i%3, MsgLen: 32, Rate: 0.001 * float64(1+i%5)}
	}
	const workers = 8
	want := make([]float64, workers)
	for i := range want {
		r, err := Evaluate(cfg(i))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r.Latency
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				r, err := Evaluate(cfg(i))
				if err != nil {
					errs <- err
					return
				}
				if math.Float64bits(r.Latency) != math.Float64bits(want[i]) {
					errs <- fmt.Errorf("worker %d: latency %v, serial %v", i, r.Latency, want[i])
					return
				}
				src := (i*97 + rep) % g.N()
				dst := (i*31 + rep*7) % g.N()
				if d, p := g.Distance(src, dst), len(g.ProfitableDims(src, dst, nil)); (d == 0) != (p == 0) {
					errs <- fmt.Errorf("worker %d: distance %d with %d profitable dims", i, d, p)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
