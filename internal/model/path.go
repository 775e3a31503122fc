package model

import (
	"fmt"
	"sync"

	"starperf/internal/cfgerr"
	"starperf/internal/hypercube"
	"starperf/internal/stargraph"
	"starperf/internal/topology"
)

// Hop describes one hop of a minimal path as seen by the blocking
// model: the adaptivity degree F (number of profitable output
// channels the header may choose from), the distance D from the
// current node to the destination (so D−1 remains after the hop),
// the number of negative hops NegTaken already behind the message,
// and whether this hop itself is negative.
type Hop struct {
	F        int
	D        int
	NegTaken int
	HopNeg   bool
}

// HopEvaluator maps one hop to its blocking probability under the
// current iterate of the model (virtual-channel occupancy and
// routing spec); see blocking.go.
type HopEvaluator func(h Hop) float64

// PathStructure abstracts the minimal-path combinatorics of a
// topology for the latency model: the destination equivalence
// classes and, per class, the expected sum of per-hop blocking
// probabilities over a uniformly chosen minimal path.
type PathStructure interface {
	// Classes returns the destination classes with their distance h
	// and population; Σ count = N−1 (the identity/self class is
	// excluded).
	Classes() []PathClass
	// BlockSum returns E[Σ_k P_block(hop k)] for a message to class
	// idx from a source of colour c0, averaging uniformly over the
	// class's minimal paths and evaluating each hop with eval.
	BlockSum(idx int, c0 int, eval HopEvaluator) float64
}

// PathClass is one destination equivalence class.
type PathClass struct {
	// H is the distance to destinations of this class.
	H int
	// Count is the number of such destinations.
	Count uint64
	// Label identifies the class (a cycle-type key for star graphs,
	// a distance for hypercubes).
	Label string
}

// negsAfter returns the number of negative hops among the first j
// hops of any minimal path leaving a colour-c0 source (exact in a
// bipartite network: colours strictly alternate).
func negsAfter(c0, j int) int { return topology.RequiredNegativeHops(c0, j) }

// hopNegAt reports whether hop number k (1-based) of a path from a
// colour-c0 source is negative: the node before hop k has colour
// c0 ⊕ (k−1 mod 2) and negative hops leave colour-1 nodes.
func hopNegAt(c0, k int) bool { return (c0+(k-1))&1 == 1 }

// StarPaths is the star-graph PathStructure: destination classes are
// residual-permutation cycle types, and per-class expected blocking
// sums are computed by dynamic programming over the type-transition
// graph instead of enumerating the (potentially exponential) set of
// minimal paths. Both views agree exactly; see TestDPMatchesExact.
//
// The dynamic program depends only on n, so NewStarPaths compiles it
// once into a pathPlan and BlockSum is a single allocation-free loop
// over it. A *StarPaths is read-only after construction and safe for
// concurrent use.
type StarPaths struct {
	pathPlan
	types []ctype
}

// starPathsMemo holds the one StarPaths per n that NewStarPaths hands
// out: all of S_2..S_12 together take about 1 MiB.
var starPathsMemo [13]struct {
	once sync.Once
	sp   *StarPaths
	err  error
}

// NewStarPaths returns the path structure of S_n. It is built on
// first use — validating the combinatorial type table against the
// closed-form distance distribution and compiling every class's
// dynamic program — and shared by every later caller.
func NewStarPaths(n int) (*StarPaths, error) {
	if n < 2 || n > 12 {
		return nil, cfgerr.Errorf("model: star paths for n=%d outside [2,12]", n)
	}
	m := &starPathsMemo[n]
	m.once.Do(func() { m.sp, m.err = buildStarPaths(n) })
	return m.sp, m.err
}

// buildStarPaths builds the path structure of S_n, 2 ≤ n ≤ 12.
func buildStarPaths(n int) (*StarPaths, error) {
	all := enumerateTypes(n)
	if err := checkTypeTable(n, all); err != nil {
		return nil, err
	}
	sp := &StarPaths{}
	var pops []uint64
	for _, c := range all {
		if c.t.isTerminal() {
			continue // the source itself is not a destination
		}
		sp.types = append(sp.types, c.t)
		pops = append(pops, c.count)
	}
	sp.pathPlan = compilePlan(sp.types, pops)
	return sp, nil
}

// CubePaths is the hypercube PathStructure: a destination at Hamming
// distance h presents exactly d profitable dimensions when d hops
// remain, on every minimal path, so no averaging is needed.
type CubePaths struct {
	m       int
	classes []PathClass
}

// NewCubePaths builds the path structure of Q_m.
func NewCubePaths(m int) (*CubePaths, error) {
	if m < 1 || m > hypercube.MaxM {
		return nil, cfgerr.Errorf("model: cube paths for m=%d out of range", m)
	}
	cp := &CubePaths{m: m}
	for h := 1; h <= m; h++ {
		cp.classes = append(cp.classes, PathClass{
			H:     h,
			Count: uint64(binomF(m, h) + 0.5),
			Label: fmt.Sprintf("h=%d", h),
		})
	}
	return cp, nil
}

// Classes implements PathStructure.
func (cp *CubePaths) Classes() []PathClass { return cp.classes }

// BlockSum implements PathStructure.
func (cp *CubePaths) BlockSum(idx, c0 int, eval HopEvaluator) float64 {
	h0 := cp.classes[idx].H
	var sum float64
	for k := 1; k <= h0; k++ {
		d := h0 - k + 1
		sum += eval(Hop{
			F:        d,
			D:        d,
			NegTaken: negsAfter(c0, k-1),
			HopNeg:   hopNegAt(c0, k),
		})
	}
	return sum
}

// ExactStarBlockSum enumerates every minimal path of the concrete
// star graph from src-relative permutations of class idx and averages
// Σ_k P_block over them directly. It is exponential and exists to
// validate the DP (TestDPMatchesExact) and for the ablation bench;
// use BlockSum for real evaluations.
func (sp *StarPaths) ExactStarBlockSum(g *stargraph.Graph, idx, c0 int, eval HopEvaluator) float64 {
	// pick any representative destination of the class
	t := sp.types[idx]
	rep := -1
	for v := 1; v < g.N(); v++ {
		if typeOf(g.Perm(v)).key() == t.key() {
			rep = v
			break
		}
	}
	if rep < 0 {
		panic("model: class without representative")
	}
	var paths, total float64
	var dfs func(cur, k int, acc float64)
	dfs = func(cur, k int, acc float64) {
		if cur == rep {
			paths++
			total += acc
			return
		}
		dims := g.ProfitableDims(cur, rep, nil)
		d := g.Distance(cur, rep)
		hop := Hop{F: len(dims), D: d, NegTaken: negsAfter(c0, k-1), HopNeg: hopNegAt(c0, k)}
		p := eval(hop)
		for _, dim := range dims {
			dfs(g.Neighbor(cur, dim), k+1, acc+p)
		}
	}
	dfs(0, 1, 0)
	return total / paths
}
