package rng_test

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"colt/internal/rng"
	"colt/internal/workload"
)

// refZipf is Zipf as it was before ZipfDist hoisted the constant
// terms: both math.Pow calls on every draw.
func refZipf(r *rng.RNG, n int, s float64) int {
	if n <= 0 {
		panic("rng: Zipf with non-positive n")
	}
	if s <= 0 {
		return r.Intn(n)
	}
	if s == 1 {
		s = 1.0000001
	}
	u := r.Float64()
	x := math.Pow(float64(n)+1, 1-s)
	v := math.Pow(u*(x-1)+1, 1/(1-s))
	idx := int(v) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// TestZipfDistMatchesReference pins the hoisted sampler to the
// two-Pow formula draw for draw: every hot-set skew the benchmark
// models use, plus s=0 (uniform) and s=1 (the singular point's
// substitution), over hot-set sizes from 1 to 65536. Both the
// distribution and the RNG.Zipf wrapper must consume the generator
// exactly as the reference does.
func TestZipfDistMatchesReference(t *testing.T) {
	const draws = 1 << 20
	skews := map[float64]bool{0: true, 1: true}
	for _, spec := range workload.All() {
		skews[spec.ZipfS] = true
	}
	var ss []float64
	for s := range skews {
		ss = append(ss, s)
	}
	sort.Float64s(ss)
	for _, s := range ss {
		t.Run(fmt.Sprintf("s=%g", s), func(t *testing.T) {
			t.Parallel()
			for _, n := range []int{1, 2, 7, 100, 4096, 65536} {
				seed := uint64(n)<<8 ^ math.Float64bits(s)
				ref, got, wrap := rng.New(seed), rng.New(seed), rng.New(seed)
				d := rng.NewZipfDist(n, s)
				for i := 0; i < draws; i++ {
					want := refZipf(ref, n, s)
					if i%64 == 0 {
						// The wrapper rebuilds the distribution per
						// call: sample it from the state got is at.
						*wrap = *got
						if v := wrap.Zipf(n, s); v != want {
							t.Fatalf("n=%d draw %d: RNG.Zipf gave %d, reference %d", n, i, v, want)
						}
					}
					if v := d.Draw(got); v != want {
						t.Fatalf("n=%d draw %d: ZipfDist gave %d, reference %d", n, i, v, want)
					}
				}
				if ref.Uint64() != got.Uint64() {
					t.Fatalf("n=%d: ZipfDist consumed the generator differently", n)
				}
			}
		})
	}
}

func TestZipfDistPanicsOnEmptyRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewZipfDist(0, 1) did not panic")
		}
	}()
	rng.NewZipfDist(0, 1)
}
