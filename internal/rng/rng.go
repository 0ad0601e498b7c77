// Package rng provides a small, fast, deterministic random-number
// generator (splitmix64) used by the workload models and the OS
// simulator. Determinism matters here: the paper's methodology is
// reproduced by running the identical allocation and access history
// against each TLB configuration, which requires bit-identical
// randomness across runs.
//
// # Stream splitting
//
// Subcomponents must not share one generator through call order:
// inserting or reordering a consumer would silently shift every
// downstream draw. Two derivation primitives are provided:
//
//   - Stream(name) derives a child generator purely from the parent's
//     construction seed and the name. It is ORDER-INDEPENDENT: the
//     stream named "workload" is the same generator whether it is
//     derived first or last, before or after any draws on the parent,
//     and regardless of which sibling streams exist. Experiment runners
//     use this so that results are a function of (seed, benchmark,
//     setup, purpose) only — the guarantee that makes parallel and
//     serial schedules byte-identical.
//   - Fork() derives a child from the parent's CURRENT state. It is
//     order-dependent by design and suited to linear histories (e.g.
//     consecutive phases of one simulation) where insertion of a new
//     consumer should intentionally produce a fresh history.
package rng

import (
	"hash/fnv"
	"math"
)

// RNG is a splitmix64 generator. The zero value is a valid generator
// seeded with 0; prefer New.
type RNG struct {
	state uint64
	// seed is the construction seed, kept so Stream can derive children
	// independent of how many values the parent has drawn.
	seed uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *RNG { return &RNG{state: seed, seed: seed} }

// Seed returns the construction seed (the root of Stream derivation).
func (r *RNG) Seed() uint64 { return r.seed }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// IntRange returns a uniform int in [lo, hi]. It panics if hi < lo.
func (r *RNG) IntRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Fork derives an independent generator whose stream is a deterministic
// function of the parent's current state, for giving subcomponents
// their own streams. Prefer Stream when the set of consumers may grow:
// Fork'd streams shift whenever an earlier Fork or draw is added.
func (r *RNG) Fork() *RNG { return New(r.Uint64()) }

// Stream derives an independent generator named name. The child is a
// pure function of the parent's construction seed and the name — it
// does not depend on the parent's draw position or on any sibling
// streams — so adding, removing, or reordering other consumers never
// changes it. Identical names yield identical streams; distinct names
// yield streams decorrelated by the splitmix64 finalizer.
func (r *RNG) Stream(name string) *RNG {
	h := fnv.New64a()
	h.Write([]byte(name))
	// Mix the name hash with the construction seed through one
	// splitmix64 step so nearby seeds and similar names both diffuse.
	z := r.seed ^ h.Sum64()
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return New(z ^ (z >> 31))
}

// Zipf returns a value in [0, n) following an approximate Zipf
// distribution with exponent s > 0: low indices are much more likely.
// It uses the inverse-CDF power-law approximation, which is accurate
// enough for workload skew modeling. A caller drawing repeatedly from
// one (n, s) should build a ZipfDist once instead.
func (r *RNG) Zipf(n int, s float64) int {
	d := NewZipfDist(n, s)
	return d.Draw(r)
}

// ZipfDist is Zipf's distribution over [0, n) with exponent s, with the
// inverse CDF's constant terms computed once: a draw then costs one
// math.Pow instead of two, and returns exactly what r.Zipf(n, s) would
// (the same floating-point operations on the same operands).
type ZipfDist struct {
	n int
	// uniform is set for s <= 0, which draws r.Intn(n).
	uniform bool
	// xm1 is (n+1)^(1-s) - 1 and inv is 1/(1-s).
	xm1, inv float64
}

// NewZipfDist builds the distribution. It panics if n <= 0.
func NewZipfDist(n int, s float64) ZipfDist {
	if n <= 0 {
		panic("rng: Zipf with non-positive n")
	}
	if s <= 0 {
		return ZipfDist{n: n, uniform: true}
	}
	if s == 1 {
		s = 1.0000001 // the inverse CDF below is singular at s=1
	}
	// Inverse CDF of p(x) ~ x^{-s} over [1, n+1).
	x := math.Pow(float64(n)+1, 1-s)
	return ZipfDist{n: n, xm1: x - 1, inv: 1 / (1 - s)}
}

// Draw returns the next value of the distribution from r.
func (d *ZipfDist) Draw(r *RNG) int {
	if d.uniform {
		return r.Intn(d.n)
	}
	u := r.Float64()
	v := math.Pow(u*d.xm1+1, d.inv)
	idx := int(v) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= d.n {
		idx = d.n - 1
	}
	return idx
}
