package perf

import (
	"math"
	"testing"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestCycles(t *testing.T) {
	m := Model{BaseCPI: 0.5, MemOverlap: 0.5}
	r := Run{Instructions: 1000, MemStallCycles: 200, WalkCycles: 100}
	want := 1000*0.5 + 0.5*200 + 100
	if got := m.Cycles(r); !almost(got, want) {
		t.Fatalf("Cycles = %v, want %v", got, want)
	}
	if got := m.PerfectTLBCycles(r); !almost(got, want-100) {
		t.Fatalf("PerfectTLBCycles = %v", got)
	}
}

func TestImprovement(t *testing.T) {
	m := Default()
	base := Run{Instructions: 1_000_000, WalkCycles: 400_000}
	half := Run{Instructions: 1_000_000, WalkCycles: 200_000}
	imp := m.Improvement(base, half)
	if imp <= 0 {
		t.Fatalf("improvement = %v", imp)
	}
	// Identical runs: zero improvement.
	if !almost(m.Improvement(base, base), 0) {
		t.Fatal("self-improvement nonzero")
	}
	// Perfect >= any partial improvement.
	if m.PerfectImprovement(base) < imp {
		t.Fatal("perfect TLB worse than CoLT")
	}
	// A slower candidate yields negative improvement.
	worse := Run{Instructions: 1_000_000, WalkCycles: 800_000}
	if m.Improvement(base, worse) >= 0 {
		t.Fatal("regression not negative")
	}
}

func TestImprovementDegenerate(t *testing.T) {
	m := Default()
	if m.Improvement(Run{}, Run{}) != 0 {
		t.Fatal("zero-cycle improvement")
	}
	if m.PerfectImprovement(Run{}) != 0 {
		t.Fatal("zero-cycle perfect improvement")
	}
	// A zero-cycle candidate against a real baseline must return the
	// defined degenerate value 0 — never +Inf. These values are
	// serialized to JSON by the metrics layer, which rejects Inf/NaN.
	base := Run{Instructions: 1000, MemStallCycles: 200, WalkCycles: 300}
	if got := m.Improvement(base, Run{}); got != 0 {
		t.Fatalf("zero-cycle candidate improvement = %v, want 0", got)
	}
	for _, r := range []Run{{}, base, {WalkCycles: 7}} {
		for _, v := range []float64{
			m.Improvement(base, r), m.Improvement(r, base), m.Improvement(r, r),
			m.PerfectImprovement(r), m.WalkStallFraction(r), MPMI(r.WalkCycles, r.Instructions),
		} {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				t.Fatalf("degenerate run %+v produced non-finite value %v", r, v)
			}
		}
	}
}

func TestWalkStallFraction(t *testing.T) {
	m := Model{BaseCPI: 1, MemOverlap: 0}
	r := Run{Instructions: 100, WalkCycles: 100}
	if !almost(m.WalkStallFraction(r), 0.5) {
		t.Fatalf("WalkStallFraction = %v", m.WalkStallFraction(r))
	}
	if m.WalkStallFraction(Run{}) != 0 {
		t.Fatal("empty run fraction")
	}
}

func TestMPMI(t *testing.T) {
	if !almost(MPMI(500, 1_000_000), 500) {
		t.Fatalf("MPMI = %v", MPMI(500, 1_000_000))
	}
	if !almost(MPMI(3, 2_000_000), 1.5) {
		t.Fatalf("MPMI = %v", MPMI(3, 2_000_000))
	}
	if MPMI(5, 0) != 0 {
		t.Fatal("MPMI with zero instructions")
	}
}

func TestDefaultModelSane(t *testing.T) {
	m := Default()
	if m.BaseCPI <= 0 || m.BaseCPI > 1 || m.MemOverlap < 0 || m.MemOverlap > 1 {
		t.Fatalf("Default = %+v", m)
	}
}
