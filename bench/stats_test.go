package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{7, 3, 10, 1, 9, 2, 8, 4, 6, 5} // 1..10, unsorted
	for _, tc := range []struct {
		p, want float64
	}{
		{0.1, 1}, {10, 1}, {11, 2}, {50, 5}, {90, 9}, {91, 10}, {99, 10}, {100, 10},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if xs[0] != 7 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false},
		{20, 50, true},
		{40, 75, true},
		{99, 75, true}, // p90 of 99 is rank 90: only 9 beyond
		{100, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
		{100000, 99.99, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

// The expected quartiles are Python's statistics.quantiles(xs, n=4),
// the rule the benchmark's bounds are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs             []float64
		q1, med, q3    float64
		spreadOfMedian float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25, 1},
		{[]float64{3, 1, 2}, 1, 2, 3, 1},
		{[]float64{1, 2}, 0.75, 1.5, 2.25, 1},
		{[]float64{5, 5, 5, 5}, 5, 5, 5, 0},
		{[]float64{0.5, 0.7, 0.6, 0.9, 0.65, 0.8, 0.75, 0.72, 0.68, 0.71}, 0.6375, 0.705, 0.7625, 0.125 / 0.705},
		{[]float64{10, 20, 30, 40, 50, 60, 70}, 20, 40, 60, 1},
		{[]float64{4}, 4, 4, 4, 0},
	} {
		q1, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q3, tc.q3) || !near(median(tc.xs), tc.med) {
			t.Errorf("%v: q1=%g median=%g q3=%g, want %g %g %g", tc.xs, q1, median(tc.xs), q3, tc.q1, tc.med, tc.q3)
		}
		if got := spread(tc.xs); !near(got, tc.spreadOfMedian) {
			t.Errorf("%v: spread %g, want %g", tc.xs, got, tc.spreadOfMedian)
		}
	}
}

func TestSummarizeCountsAndTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1
	}
	s := summarize(xs)
	if s.N != 100 || s.Median != 50.5 || !s.TailOK || s.TailP != 90 || s.Tail != 90 {
		t.Errorf("summarize(1..100) = %+v", s)
	}
	if s := summarize(xs[:5]); s.N != 5 || s.TailOK {
		t.Errorf("summarize of 5 samples = %+v, want no tail", s)
	}
}

func TestVerdict(t *testing.T) {
	lower := boundedMetric{Name: "pass_s", Better: "lower", Bound: 0.10}
	higher := boundedMetric{Name: "goodput_rps", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name           string
		parent, change []float64
		m              boundedMetric
		want           string
	}{
		{"faster everywhere", steady, scaled(steady, 0.9), lower, "improved"},
		{"more throughput", steady, scaled(steady, 1.1), higher, "improved"},
		{"same", steady, steady, lower, "no worse"},
		{"slower within bound", steady, scaled(steady, 1.05), lower, "no worse"},
		{"slower beyond bound", steady, scaled(steady, 1.2), lower, "worse"},
		{"too few pairs to claim", steady[:5], scaled(steady[:5], 0.9), lower, "no worse"},
		{"noisy parent", []float64{80, 120, 90, 110, 100, 70, 130, 95, 105, 100}, scaled(steady, 1.05), lower, "unresolved"},
		{"noisy but every run better", []float64{80, 120, 90, 110, 100, 85, 130, 95, 105, 100}, scaled(steady, 0.7), lower, "improved"},
	} {
		if got, _ := verdict(tc.parent, tc.change, tc.m); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
