package model

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"starperf/internal/perm"
	"starperf/internal/stargraph"
)

// ErrSelfCheck classifies failures of the model's internal
// cross-validation (the combinatorial type table against the
// closed-form distance distribution): a wrapped ErrSelfCheck means
// the model's own tables are inconsistent, not that the caller's
// configuration was wrong.
var ErrSelfCheck = errors.New("model: self-check failed")

// ctype is the canonical residual-permutation state used by the
// star-graph path dynamic program: the length of the cycle through
// position 1 (0 when position 1 is home) and the multiset of the
// remaining non-trivial cycle lengths, sorted descending. The
// profitable-move structure of minimal star-graph routing — how many
// moves exist and which state each leads to — depends only on this
// type, which is what makes the model polynomial instead of
// enumerating up to n! paths.
type ctype struct {
	first  int
	others []int // descending, each ≥ 2
}

func (t ctype) key() string {
	var b strings.Builder
	b.WriteString(strconv.Itoa(t.first))
	for _, l := range t.others {
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(l))
	}
	return b.String()
}

// displaced returns m, the number of displaced symbols.
func (t ctype) displaced() int {
	m := t.first
	for _, l := range t.others {
		m += l
	}
	return m
}

// cycles returns c, the number of non-trivial cycles.
func (t ctype) cycles() int {
	c := len(t.others)
	if t.first > 0 {
		c++
	}
	return c
}

// dist returns the star-graph distance of any permutation of this
// type: m+c when position 1 is home, m+c−2 otherwise.
func (t ctype) dist() int {
	m := t.displaced()
	if m == 0 {
		return 0
	}
	if t.first == 0 {
		return m + t.cycles()
	}
	return m + t.cycles() - 2
}

// fanout returns f, the number of profitable moves: m when position 1
// is home, 1 + (m − L) otherwise.
func (t ctype) fanout() int {
	if t.first == 0 {
		return t.displaced()
	}
	return 1 + t.displaced() - t.first
}

// isTerminal reports whether the type is the identity.
func (t ctype) isTerminal() bool { return t.first == 0 && len(t.others) == 0 }

func typeOf(p perm.Permutation) ctype {
	pt := p.Type()
	return ctype{first: pt.FirstLen, others: pt.Others}
}

// withoutOne returns others with one occurrence of l removed,
// preserving descending order.
func withoutOne(others []int, l int) []int {
	out := make([]int, 0, len(others)-1)
	removed := false
	for _, x := range others {
		if !removed && x == l {
			removed = true
			continue
		}
		out = append(out, x)
	}
	return out
}

// withAdded returns others with l inserted, preserving descending
// order.
func withAdded(others []int, l int) []int {
	out := make([]int, 0, len(others)+1)
	placed := false
	for _, x := range others {
		if !placed && l > x {
			out = append(out, l)
			placed = true
		}
		out = append(out, x)
	}
	if !placed {
		out = append(out, l)
	}
	return out
}

// transitions enumerates the profitable-move classes out of t,
// derived from the case analysis of the star-graph distance formula
// (see stargraph.ProfitableDims):
//
//   - position 1 home: swapping with any position of a cycle of
//     length L (L moves per such cycle) pulls position 1 into that
//     cycle → first = L+1;
//   - otherwise: the single move g_x sends the front symbol home,
//     shortening the first cycle (or closing it when L = 2); and
//     swapping with any position of a different non-trivial cycle
//     (L_c moves each) merges it into the first cycle.
//
// The multiplicities sum to fanout(), asserted in tests. The result
// is sorted by successor key, the order BlockSum adds in.
func (t ctype) transitions() []transition[ctype] {
	var out []transition[ctype]
	// Merging a cycle of length L leaves a first cycle of base+L:
	// position 1 joins that cycle (base 1) or the two cycles fuse.
	base := t.first
	if t.first == 0 {
		base = 1
	} else {
		// (a) send the front symbol home
		next := t.first - 1
		if next == 1 {
			next = 0
		}
		out = append(out, transition[ctype]{to: ctype{first: next, others: t.others}, mult: 1})
	}
	// (b) merge another cycle into the first one: one transition per
	// run of equal lengths in the descending multiset
	for i := 0; i < len(t.others); {
		l, j := t.others[i], i+1
		for j < len(t.others) && t.others[j] == l {
			j++
		}
		out = append(out, transition[ctype]{
			to:   ctype{first: base + l, others: withoutOne(t.others, l)},
			mult: (j - i) * l,
		})
		i = j
	}
	sortTransitions(out)
	return out
}

func sortTransitions(ts []transition[ctype]) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].to.key() < ts[j].to.key() })
}

// destClass is one equivalence class of destinations: all
// destinations whose relative permutation has the given type are at
// the same distance and expose the same minimal-path structure.
type destClass struct {
	t     ctype
	h     int
	count uint64 // permutations of this type among the n! nodes
}

// enumerateTypes generates every cycle type of permutations of n
// symbols together with its exact population, combinatorially:
//
//	count(first=a≥2, others) = C(n−1,a−1)·(a−1)! · place(n−a, others)
//	count(first=0,  others) =                    place(n−1, others)
//
// where place(ν, {l^μ_l}) = ν! / ((ν−Σl)! · Π l^{μ_l} · Π μ_l!) is
// the number of permutations of ν elements whose non-trivial cycles
// are exactly the multiset. Σ count = n! (asserted in tests).
func enumerateTypes(n int) []destClass {
	var out []destClass
	addWithFirst := func(a int, avail int, prefixCount float64) {
		// enumerate partitions of subsets of avail into parts ≥ 2
		var rec func(maxPart, used int, parts []int, ways float64)
		rec = func(maxPart, used int, parts []int, ways float64) {
			t := ctype{first: a, others: append([]int(nil), parts...)}
			out = append(out, destClass{t: t, h: t.dist(), count: uint64(prefixCount*ways + 0.5)})
			for l := 2; l <= maxPart && used+l <= avail; l++ {
				// count multiplicity handling: divide by μ! lazily —
				// enforce descending parts and divide by the number of
				// equal predecessors instead.
				run := 1
				for i := len(parts) - 1; i >= 0 && parts[i] == l; i-- {
					run++
				}
				// ways multiplier for adding one cycle of length l on
				// the remaining (avail−used) elements:
				// C(avail−used, l)·(l−1)! / run
				w := ways * binomF(avail-used, l) * factF(l-1) / float64(run)
				rec(l, used+l, append(parts, l), w)
			}
		}
		rec(avail, 0, nil, 1)
	}
	// position 1 home
	addWithFirst(0, n-1, 1)
	// position 1 in a cycle of length a
	for a := 2; a <= n; a++ {
		prefix := binomF(n-1, a-1) * factF(a-1)
		addWithFirst(a, n-a, prefix)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].h != out[j].h {
			return out[i].h < out[j].h
		}
		return out[i].t.key() < out[j].t.key()
	})
	return out
}

func factF(k int) float64 {
	f := 1.0
	for i := 2; i <= k; i++ {
		f *= float64(i)
	}
	return f
}

func binomF(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	r := 1.0
	for i := 1; i <= k; i++ {
		r = r * float64(n-k+i) / float64(i)
	}
	return r
}

// checkTypeTable validates the enumeration against the closed-form
// distance distribution; it is exercised directly by tests and cheap
// enough to run at model construction for small n.
func checkTypeTable(n int, classes []destClass) error {
	dist := stargraph.DistanceDistribution(n)
	got := make([]uint64, len(dist))
	var total uint64
	for _, c := range classes {
		if c.h >= len(got) {
			return fmt.Errorf("%w: type %s at distance %d beyond diameter", ErrSelfCheck, c.t.key(), c.h)
		}
		got[c.h] += c.count
		total += c.count
	}
	if total != perm.Factorial(n) {
		return fmt.Errorf("%w: type counts sum to %d, want %d", ErrSelfCheck, total, perm.Factorial(n))
	}
	for h := range dist {
		if got[h] != dist[h] {
			return fmt.Errorf("%w: %d permutations at distance %d, want %d", ErrSelfCheck, got[h], h, dist[h])
		}
	}
	return nil
}
