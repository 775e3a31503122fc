package model

import (
	"sort"
	"strconv"
	"strings"
	"sync"

	"starperf/internal/cfgerr"
)

// TorusPaths is the k-ary n-cube PathStructure. A destination is
// characterised by the sorted vector of per-dimension minimal ring
// offsets m_i ∈ [0, k/2]; the adaptivity degree at a node is the
// number of unfinished dimensions, counting twice any dimension whose
// remaining offset is exactly k/2 (both ring directions are then
// minimal). Minimal hops decrement one offset, which induces a small
// transition system over sorted offset vectors — the same dynamic
// program as the star graph's cycle types, compiled into the same
// pathPlan. A *TorusPaths is read-only and safe for concurrent use.
type TorusPaths struct{ pathPlan }

// Torus sizes the model takes: the extent of the shared table, and
// within it at most maxPlanSteps destination classes.
const (
	maxTorusK = 64
	maxTorusN = 8
)

// torusPathsMemo holds the one TorusPaths per (k, n) that NewTorusPaths
// hands out, indexed by k/2 and n. 83 sizes pass the class bound; all
// of their plans together take about 24 MB.
var torusPathsMemo [maxTorusK/2 + 1][maxTorusN + 1]struct {
	once sync.Once
	tp   *TorusPaths
}

// NewTorusPaths returns the path structure of the k-ary n-cube (k
// even, as required by the negative-hop schemes). The model takes
// k ≤ 64, n ≤ 8 and at most maxPlanSteps destination classes,
// C(k/2+n, n) − 1, checked in closed form before anything is built:
// T42x2 (252 classes) is the largest 2-cube, T16x3 (164) is accepted,
// T16x4 (494) is not. The structure is built on first use and shared
// by every later caller.
func NewTorusPaths(k, n int) (*TorusPaths, error) {
	if k < 2 || k%2 != 0 || n < 1 {
		return nil, cfgerr.Errorf("model: torus paths need even k ≥ 2 and n ≥ 1 (got k=%d n=%d)", k, n)
	}
	if k > maxTorusK || n > maxTorusN {
		return nil, cfgerr.Errorf("model: torus k=%d n=%d too large (the model takes k ≤ %d, n ≤ %d)", k, n, maxTorusK, maxTorusN)
	}
	if c := torusClassCount(k/2, n); c > maxPlanSteps {
		return nil, cfgerr.Errorf("model: torus k=%d n=%d has %d destination classes, more than the model's %d", k, n, c, maxPlanSteps)
	}
	m := &torusPathsMemo[k/2][n]
	m.once.Do(func() { m.tp = buildTorusPaths(k, n) })
	return m.tp, nil
}

// torusClassCount returns C(half+n, n) − 1, the number of non-zero
// non-increasing offset vectors of length n over [0, half]: the
// destination classes of the (2·half)-ary n-cube.
func torusClassCount(half, n int) int {
	c := 1
	for i := 1; i <= n; i++ {
		c = c * (half + i) / i // exact: c is C(half+i−1, i−1) here
	}
	return c - 1
}

// buildTorusPaths enumerates the destination classes of the k-ary
// n-cube, ordered by distance and then label, and compiles their plan.
func buildTorusPaths(k, n int) *TorusPaths {
	var roots []offsets
	// Step through the non-increasing vectors over [0, k/2] in
	// lexicographic order, skipping the all-zero start (the source
	// itself): raise the last offset still below its predecessor (or
	// below k/2, for the first) and zero the ones after it.
	for m := make([]int, n); ; {
		i := n - 1
		for i > 0 && m[i] == m[i-1] {
			i--
		}
		if i == 0 && m[0] == k/2 {
			break
		}
		m[i]++
		clear(m[i+1:])
		roots = append(roots, offsets{m: append([]int(nil), m...), half: k / 2})
	}
	sort.Slice(roots, func(i, j int) bool {
		if di, dj := roots[i].dist(), roots[j].dist(); di != dj {
			return di < dj
		}
		return roots[i].key() < roots[j].key()
	})
	pops := make([]uint64, len(roots))
	for i, r := range roots {
		pops[i] = r.population()
	}
	return &TorusPaths{compilePlan(roots, pops)}
}

// offsets is the torus dynamic program's state: the per-dimension
// minimal ring offsets still to travel, sorted descending, on rings
// of radix 2·half.
type offsets struct {
	m    []int
	half int
}

func (o offsets) key() string { return vecKey(o.m) }

func (o offsets) dist() int { return sum(o.m) }

// fanout returns the adaptivity degree of a state: one profitable
// channel per unfinished dimension, two when the remaining offset is
// the half-ring tie.
func (o offsets) fanout() int {
	f := 0
	for _, m := range o.m {
		switch {
		case m == 0:
		case m == o.half:
			f += 2
		default:
			f++
		}
	}
	return f
}

// transitions lists the distinct decrement moves out of the state in
// descending order of the offset decremented: one per run of equal
// non-zero offsets, whose mult counts the channels realising it
// (the dimensions holding the value, doubled at the half-ring tie).
// Decrementing the run's last dimension keeps the vector sorted.
func (o offsets) transitions() []transition[offsets] {
	var out []transition[offsets]
	for i := 0; i < len(o.m) && o.m[i] > 0; {
		v, j := o.m[i], i+1
		for j < len(o.m) && o.m[j] == v {
			j++
		}
		ways := j - i
		if v == o.half {
			ways *= 2
		}
		child := append([]int(nil), o.m...)
		child[j-1]--
		out = append(out, transition[offsets]{to: offsets{m: child, half: o.half}, mult: ways})
		i = j
	}
	return out
}

// population returns the number of destinations with this offset
// vector: the number of ways to assign the offsets to dimensions
// (multinomial over runs of equal values) times, per dimension, the
// number of ring digits realising that minimal offset (one for 0 and
// k/2, two otherwise).
func (o offsets) population() uint64 {
	ways := factF(len(o.m))
	for i := 0; i < len(o.m); {
		j := i + 1
		for j < len(o.m) && o.m[j] == o.m[i] {
			j++
		}
		ways /= factF(j - i)
		if o.m[i] != 0 && o.m[i] != o.half {
			ways *= float64(uint64(1) << (j - i))
		}
		i = j
	}
	return uint64(ways + 0.5)
}

func sum(v []int) int {
	s := 0
	for _, x := range v {
		s += x
	}
	return s
}

func vecKey(v []int) string {
	var b strings.Builder
	for i, x := range v {
		if i > 0 {
			b.WriteByte(':')
		}
		b.WriteString(strconv.Itoa(x))
	}
	return b.String()
}
