package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of xs: the smallest sample with at least p% of the samples at or
// below it. xs need not be sorted; it is not modified. It returns NaN
// for an empty input.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	return s[nearestRank(len(s), p)-1]
}

// nearestRank is the 1-based rank of the p-th percentile of n samples.
func nearestRank(n int, p float64) int {
	// The tolerance keeps float error from pushing an exact rank up:
	// 99.9% of 10000 must be rank 9990, not 9991.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailLadder is the set of percentiles a tail is reported at.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9, 99.99}

// tailPercentile returns the highest percentile on tailLadder that
// leaves at least ten of n samples beyond it, and false when even the
// median does not (n < 20).
func tailPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailLadder {
		if n-nearestRank(n, p) >= 10 {
			best, ok = p, true
		}
	}
	return best, ok
}

// median returns the middle sample, or the mean of the two middle
// samples for an even count (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the same
// rule as Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so spreads computed here match the ones the
// benchmark's bounds are judged by. A single sample is its own
// quartiles; an empty input gives NaN.
func quartiles(xs []float64) (q1, q3 float64) {
	switch len(xs) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0]
	}
	s := sorted(xs)
	n := len(s)
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile range as a share of the median: the
// run-to-run noise measure the benchmark's bounds are compared with.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// summary is one timing's distribution as the benchmark reports it.
type summary struct {
	N      int
	Median float64
	Q1, Q3 float64
	// Tail is the value at TailP, the highest percentile with at least
	// ten samples beyond it; TailOK is false when there are too few
	// samples for any.
	TailP  float64
	Tail   float64
	TailOK bool
}

func summarize(xs []float64) summary {
	s := summary{N: len(xs), Median: median(xs)}
	s.Q1, s.Q3 = quartiles(xs)
	if p, ok := tailPercentile(len(xs)); ok {
		s.TailP, s.Tail, s.TailOK = p, percentile(xs, p), true
	}
	return s
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
