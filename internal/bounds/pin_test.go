package bounds

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"testing"

	"starperf/internal/cfgerr"
	"starperf/internal/routing"
	"starperf/internal/stargraph"
)

// boundsGridPin is the sha256 of math.Float64bits of every Result
// float over the grid walked by TestEvaluateBitIdentityPin, computed
// before star-graph Distance/ProfitableDims stopped allocating.
const boundsGridPin = "2ceb1904840e421e89be14dd8d64bdb4acede2763853512e16068f01db1a2565"

// boundsGridPoints is the number of operating points the grid visits.
const boundsGridPoints = 140

// TestEvaluateBitIdentityPin walks S3–S5, V ∈ {4,6,9,12},
// M ∈ {16,32} and rates in steps of 1/8 of the injection limit up to
// the first unboundable point, hashing the exact bits of every float
// the evaluation returns.
func TestEvaluateBitIdentityPin(t *testing.T) {
	h := sha256.New()
	var buf [8]byte
	put := func(f float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
	points := 0
	for n := 3; n <= 5; n++ {
		g := stargraph.MustNew(n)
		for _, v := range []int{4, 6, 9, 12} {
			for _, m := range []int{16, 32} {
				for k := 1; k < 8; k++ {
					rate := float64(k) / float64(8*m*g.Degree())
					res, err := Evaluate(Config{Top: g, Kind: routing.EnhancedNbc, V: v, MsgLen: m, Rate: rate})
					if errors.Is(err, cfgerr.ErrInvalid) {
						break
					}
					points++
					if errors.Is(err, ErrUnboundable) {
						break
					}
					if err != nil {
						t.Fatalf("S%d V=%d M=%d rate %v: %v", n, v, m, rate, err)
					}
					put(res.WorstCase)
					put(res.Utilization)
					put(res.HopDelay)
					put(res.Residual)
					put(float64(res.Iterations))
					put(float64(res.Flows))
					put(float64(res.Channels))
					for _, c := range res.Classes {
						put(float64(c.Hops))
						put(float64(c.Flows))
						put(c.Bound)
					}
				}
			}
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	if points != boundsGridPoints || got != boundsGridPin {
		t.Fatalf("grid of %d points hashes to %s, want %d points hashing to %s", points, got, boundsGridPoints, boundsGridPin)
	}
}
