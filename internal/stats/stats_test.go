package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestCDFBasics(t *testing.T) {
	c := NewCDF()
	if !c.Empty() || c.At(100) != 0 || c.Mean() != 0 {
		t.Fatal("empty CDF misbehaves")
	}
	c.Add(1)
	c.Add(4)
	c.Add(4)
	c.Add(16)
	if c.Total() != 4 {
		t.Fatalf("Total = %v", c.Total())
	}
	if !almostEqual(c.At(1), 0.25) {
		t.Fatalf("At(1) = %v", c.At(1))
	}
	if !almostEqual(c.At(4), 0.75) {
		t.Fatalf("At(4) = %v", c.At(4))
	}
	if !almostEqual(c.At(1000), 1) {
		t.Fatalf("At(1000) = %v", c.At(1000))
	}
	if !almostEqual(c.Mean(), (1+4+4+16)/4.0) {
		t.Fatalf("Mean = %v", c.Mean())
	}
}

func TestCDFWeighted(t *testing.T) {
	c := NewCDF()
	c.AddWeighted(2, 10)
	c.AddWeighted(8, 30)
	c.AddWeighted(8, -5) // ignored
	if !almostEqual(c.At(2), 0.25) {
		t.Fatalf("At(2) = %v", c.At(2))
	}
	if !almostEqual(c.Mean(), (2*10+8*30)/40.0) {
		t.Fatalf("Mean = %v", c.Mean())
	}
}

func TestCDFPointsMonotone(t *testing.T) {
	f := func(raw []uint16) bool {
		c := NewCDF()
		for _, r := range raw {
			c.AddWeighted(float64(r%64), float64(r%7)+1)
		}
		pts := c.Points()
		if len(raw) > 0 && !almostEqual(pts[len(pts)-1].CumFrac, 1) {
			return false
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].Value <= pts[i-1].Value || pts[i].CumFrac < pts[i-1].CumFrac {
				return false
			}
		}
		return sort.SliceIsSorted(pts, func(i, j int) bool { return pts[i].Value < pts[j].Value })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCDFPercentile(t *testing.T) {
	c := NewCDF()
	for v := 1; v <= 100; v++ {
		c.Add(float64(v))
	}
	if got := c.Percentile(0.5); got != 50 {
		t.Fatalf("Percentile(0.5) = %v", got)
	}
	if got := c.Percentile(1.0); got != 100 {
		t.Fatalf("Percentile(1.0) = %v", got)
	}
}

func TestCDFSampleAt(t *testing.T) {
	c := NewCDF()
	c.AddWeighted(3, 1)
	c.AddWeighted(20, 1)
	pts := c.SampleAt([]float64{1, 4, 16, 64})
	want := []float64{0, 0.5, 0.5, 1}
	for i, p := range pts {
		if !almostEqual(p.CumFrac, want[i]) {
			t.Errorf("SampleAt[%d] = %v, want %v", i, p.CumFrac, want[i])
		}
	}
}

func TestSummary(t *testing.T) {
	var s Summary
	if s.Mean() != 0 {
		t.Fatal("empty Summary mean != 0")
	}
	for _, v := range []float64{5, 1, 9} {
		s.Add(v)
	}
	if s.Count != 3 || s.Min != 1 || s.Max != 9 || !almostEqual(s.Mean(), 5) {
		t.Fatalf("Summary = %+v", s)
	}
}

func TestPercentHelpers(t *testing.T) {
	if !almostEqual(PercentEliminated(200, 80), 60) {
		t.Fatalf("PercentEliminated = %v", PercentEliminated(200, 80))
	}
	if !almostEqual(PercentEliminated(100, 125), -25) {
		t.Fatalf("negative elimination = %v", PercentEliminated(100, 125))
	}
	if PercentEliminated(0, 10) != 0 {
		t.Fatal("PercentEliminated baseline 0 should be 0")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Bench", "MPMI")
	tb.AddRow("Mcf", 56550)
	tb.AddRow("Milc", 120.5)
	out := tb.String()
	if !strings.Contains(out, "Bench") || !strings.Contains(out, "56550") || !strings.Contains(out, "120.50") {
		t.Fatalf("table output missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), out)
	}
}
