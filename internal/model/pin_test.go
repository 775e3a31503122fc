package model

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash"
	"math"
	"testing"

	"starperf/internal/cfgerr"
	"starperf/internal/routing"
	"starperf/internal/stargraph"
	"starperf/internal/topology"
	"starperf/internal/torus"
)

// modelGridPin is the sha256 of math.Float64bits of every Result
// float over the grid walked by TestEvaluateBitIdentityPin. It was
// computed with the recursive string-keyed BlockSum the compiled plan
// replaced, so any change to the order or grouping of the model's
// float operations shows up here as a different digest.
const modelGridPin = "00286f948328e7ad2e340c8caeb75c1f5766353dd71e5bba83a0f5d9fdf36322"

// modelGridPoints is the number of operating points the grid visits.
const modelGridPoints = 1546

// TestEvaluateBitIdentityPin walks n = 3..7, V ∈ {4,6,9,12},
// M ∈ {16,32,64}, every BlockingModel and rates in steps of 1/20 of
// the channel capacity up to the first saturated point, hashing the
// exact bits of every float the evaluation returns (saturated partial
// results included).
func TestEvaluateBitIdentityPin(t *testing.T) {
	h := sha256.New()
	points := 0
	for n := 3; n <= 7; n++ {
		sp, err := NewStarPaths(n)
		if err != nil {
			t.Fatal(err)
		}
		g := stargraph.MustNew(n)
		capRate := float64(g.Degree()) / g.AvgDistance()
		for _, v := range []int{4, 6, 9, 12} {
			for _, m := range []int{16, 32, 64} {
				for _, bm := range []BlockingModel{Window, PaperInsidePower, PaperOutsidePower} {
					for k := 1; k < 20; k++ {
						rate := float64(k) * capRate / float64(20*m)
						res, err := Evaluate(Config{Paths: sp, Top: g, Kind: routing.EnhancedNbc,
							V: v, MsgLen: m, Rate: rate, Blocking: bm})
						if errors.Is(err, cfgerr.ErrInvalid) {
							break // V below the routing's escape minimum
						}
						points++
						hashResult(h, res)
						if err != nil {
							if !errors.Is(err, ErrSaturated) {
								t.Fatalf("S%d V=%d M=%d %v rate %v: %v", n, v, m, bm, rate, err)
							}
							break
						}
					}
				}
			}
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	if points != modelGridPoints || got != modelGridPin {
		t.Fatalf("grid of %d points hashes to %s, want %d points hashing to %s", points, got, modelGridPoints, modelGridPin)
	}
}

// torusGridPin is the sha256 of every Result float over the grid
// walked by TestTorusBitIdentityPin, computed on the compiled torus
// plan. The recursive torus DP it replaced added its terms in map
// order, so it had no stable digest; over this grid its results
// agreed with these to within 1e-15 relative.
const torusGridPin = "7093fed7641bdd3cc45a2b906ed21bb588bf8766b2161e3ecea0534d05ecff3f"

// torusGridPoints is the number of operating points the grid visits.
const torusGridPoints = 90

// TestTorusBitIdentityPin walks T4x2, T4x3, T8x2, T8x3, T16x2 and
// T16x3 with one VC above the routing's minimum, M = 32, every
// BlockingModel and rates in steps of 1/8 of the channel capacity up
// to the first saturated point, hashing the exact bits of every float
// the evaluation returns.
func TestTorusBitIdentityPin(t *testing.T) {
	h := sha256.New()
	points := 0
	for _, kn := range [][2]int{{4, 2}, {4, 3}, {8, 2}, {8, 3}, {16, 2}, {16, 3}} {
		tp, err := NewTorusPaths(kn[0], kn[1])
		if err != nil {
			t.Fatal(err)
		}
		g := torus.MustNew(kn[0], kn[1])
		capRate := float64(g.Degree()) / g.AvgDistance()
		v := topology.MinEscapeVCs(g.Diameter()) + 2 // one class-a VC above the minimum
		for _, bm := range []BlockingModel{Window, PaperInsidePower, PaperOutsidePower} {
			for k := 1; k < 8; k++ {
				rate := float64(k) * capRate / float64(8*32)
				res, err := Evaluate(Config{Paths: tp, Top: g, Kind: routing.EnhancedNbc,
					V: v, MsgLen: 32, Rate: rate, Blocking: bm})
				points++
				hashResult(h, res)
				if err != nil {
					if !errors.Is(err, ErrSaturated) {
						t.Fatalf("T%dx%d V=%d %v rate %v: %v", kn[0], kn[1], v, bm, rate, err)
					}
					break
				}
			}
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	if points != torusGridPoints || got != torusGridPin {
		t.Fatalf("grid of %d points hashes to %s, want %d points hashing to %s", points, got, torusGridPoints, torusGridPin)
	}
}

func hashResult(h hash.Hash, r *Result) {
	var buf [8]byte
	put := func(f float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
	put(r.Latency)
	put(r.NetLatency)
	put(r.SourceWait)
	put(r.ChannelWait)
	put(r.Multiplexing)
	put(r.ChannelRate)
	put(r.Utilization)
	put(r.MeanBlocking)
	for _, p := range r.VCOccupancy {
		put(p)
	}
	for _, c := range r.PerClass {
		put(c.Weight)
		put(c.NetLatency)
		put(c.Blocking)
	}
	put(float64(r.Iterations))
}
