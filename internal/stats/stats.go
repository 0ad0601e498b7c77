// Package stats provides the small statistical toolkit the CoLT
// experiments need: weighted cumulative distribution functions over page
// contiguity, running summaries, percentage helpers, and plain-text table
// rendering for regenerating the paper's tables and figure series.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// CDF is a weighted empirical cumulative distribution function over
// float64 sample values. The contiguity characterization weights each
// contiguity run by the number of pages it covers, matching the paper's
// "distribution of contiguities experienced by pages" (Figures 7-15).
type CDF struct {
	weights map[float64]float64
	total   float64
}

// NewCDF returns an empty CDF.
func NewCDF() *CDF {
	return &CDF{weights: make(map[float64]float64)}
}

// Add records one observation of value with weight 1.
func (c *CDF) Add(value float64) { c.AddWeighted(value, 1) }

// AddWeighted records an observation of value carrying the given weight.
// Non-positive weights are ignored.
func (c *CDF) AddWeighted(value, weight float64) {
	if weight <= 0 {
		return
	}
	c.weights[value] += weight
	c.total += weight
}

// Total returns the sum of all weights.
func (c *CDF) Total() float64 { return c.total }

// Empty reports whether no observations have been recorded.
func (c *CDF) Empty() bool { return c.total == 0 }

// At returns P(X <= value), in [0, 1]. An empty CDF returns 0.
func (c *CDF) At(value float64) float64 {
	if c.total == 0 {
		return 0
	}
	var acc float64
	for v, w := range c.weights {
		if v <= value {
			acc += w
		}
	}
	return acc / c.total
}

// Mean returns the weighted mean of the observations (0 when empty).
func (c *CDF) Mean() float64 {
	if c.total == 0 {
		return 0
	}
	var acc float64
	for v, w := range c.weights {
		acc += v * w
	}
	return acc / c.total
}

// Percentile returns the smallest recorded value v such that
// P(X <= v) >= p, with p in (0, 1]. An empty CDF returns 0.
func (c *CDF) Percentile(p float64) float64 {
	pts := c.Points()
	for _, pt := range pts {
		if pt.CumFrac >= p {
			return pt.Value
		}
	}
	if len(pts) > 0 {
		return pts[len(pts)-1].Value
	}
	return 0
}

// Point is one step of the CDF: the cumulative fraction of weight at or
// below Value.
type Point struct {
	Value   float64
	CumFrac float64
}

// Points returns the CDF as an ascending series of (value, cumulative
// fraction) steps, ending at 1.0.
func (c *CDF) Points() []Point {
	vals := make([]float64, 0, len(c.weights))
	for v := range c.weights {
		vals = append(vals, v)
	}
	sort.Float64s(vals)
	pts := make([]Point, 0, len(vals))
	var acc float64
	for _, v := range vals {
		acc += c.weights[v]
		pts = append(pts, Point{Value: v, CumFrac: acc / c.total})
	}
	return pts
}

// SampleAt evaluates the CDF at each of the given x values; used to print
// the paper's log-scale x-axis series (1, 4, 16, 64, 256, 1024).
func (c *CDF) SampleAt(xs []float64) []Point {
	out := make([]Point, len(xs))
	for i, x := range xs {
		out[i] = Point{Value: x, CumFrac: c.At(x)}
	}
	return out
}

// Summary accumulates count/sum/min/max of a stream of float64s.
type Summary struct {
	Count    int
	Sum      float64
	Min, Max float64
}

// Add records one observation.
func (s *Summary) Add(v float64) {
	if s.Count == 0 {
		s.Min, s.Max = v, v
	} else {
		s.Min = math.Min(s.Min, v)
		s.Max = math.Max(s.Max, v)
	}
	s.Count++
	s.Sum += v
}

// Mean returns the arithmetic mean (0 when empty).
func (s *Summary) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// PercentEliminated returns the percentage of baseline events removed by
// the improved count: 100*(baseline-improved)/baseline. Negative values
// mean the "improvement" added events (possible for CoLT-SA conflict
// misses, see paper Figure 19). Returns 0 when baseline is 0.
func PercentEliminated(baseline, improved float64) float64 {
	if baseline == 0 {
		return 0
	}
	return 100 * (baseline - improved) / baseline
}

// Table renders aligned plain-text tables for experiment output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with padded columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	rule := make([]string, len(t.header))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	writeRow(rule)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
