// Package loadgen is the client side of the serving story: a
// deterministic zipf-skewed workload generator and the latency/
// throughput accounting of a run against running coltd daemons
// (cmd/coltload). The repository benchmark's serve-hit workload
// (bench/) draws its request stream from the same Zipf sampler.
//
// The popularity model is the classic bounded zipf distribution:
// item k (0-based) is drawn with probability proportional to
// 1/(k+1)^s. Real serving traffic is skewed — a few hot specs absorb
// most submissions — and skew is exactly what exercises the server's
// coalescing map, cache hot path, and per-shard admission state. The
// sampler draws from an internal/rng generator, so a (seed, client)
// pair replays the identical request sequence on every run and a
// comparison of two builds measures the server, not the workload.
package loadgen

import (
	"fmt"
	"math"
	"sort"

	"colt/internal/rng"
)

// Zipf samples item indexes in [0, N) with P(k) ∝ 1/(k+1)^s. Item 0
// is the hottest. s == 0 degenerates to uniform. Not safe for
// concurrent use; give each client its own sampler.
type Zipf struct {
	cdf []float64
	r   *rng.RNG
}

// NewZipf builds a sampler over n items with exponent s, drawing from
// r. It panics if n < 1, s < 0, or r is nil — misuse, not input.
func NewZipf(r *rng.RNG, n int, s float64) *Zipf {
	if r == nil {
		panic("loadgen: NewZipf with nil rng")
	}
	if n < 1 {
		panic(fmt.Sprintf("loadgen: NewZipf with n=%d, want >= 1", n))
	}
	if s < 0 {
		panic(fmt.Sprintf("loadgen: NewZipf with s=%g, want >= 0", s))
	}
	z := &Zipf{cdf: make([]float64, n), r: r}
	total := 0.0
	for k := 0; k < n; k++ {
		total += 1.0 / math.Pow(float64(k+1), s)
		z.cdf[k] = total
	}
	for k := range z.cdf {
		z.cdf[k] /= total
	}
	z.cdf[n-1] = 1.0 // guard against float drift at the tail
	return z
}

// Next draws the next item index.
func (z *Zipf) Next() int {
	u := z.r.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}

// N returns the item-universe size.
func (z *Zipf) N() int { return len(z.cdf) }
