// Package perf implements the paper's performance-interpolation
// methodology (§5.2.1): rather than full microarchitectural simulation,
// runtime is modeled as base execution cycles of a 4-wide out-of-order
// core, plus partially-overlapped memory-stall cycles, plus page-walk
// cycles charged serially — the paper's own justification being that
// "TLB miss penalties (page walks) are serialized as only one page walk
// can typically be handled at a time. Hence, TLB misses lie on the
// execution's critical path."
package perf

// Model holds the interpolation parameters.
type Model struct {
	// BaseCPI is the core's cycles-per-instruction assuming perfect
	// caches and TLBs (a 4-wide OoO machine sustains less than its
	// peak width on real code).
	BaseCPI float64
	// MemOverlap is the fraction of data-cache stall cycles NOT hidden
	// by out-of-order execution (0 = fully hidden, 1 = fully exposed).
	// A 128-entry ROB hides a substantial share of L2/LLC-hit stalls.
	MemOverlap float64
}

// Default returns the model used by the experiments: a 4-wide core
// sustaining IPC 2.5 on compute, with 30% of memory stalls exposed.
func Default() Model {
	return Model{BaseCPI: 0.4, MemOverlap: 0.3}
}

// Run is one measured execution: instruction count plus the two stall
// totals accumulated by the simulators.
type Run struct {
	Instructions uint64
	// MemStallCycles is the sum over data references of latency beyond
	// an L1 hit.
	MemStallCycles uint64
	// WalkCycles is the total serialized page-walk latency (from
	// core.Stats.WalkCycles).
	WalkCycles uint64
}

// Cycles returns the modeled runtime.
func (m Model) Cycles(r Run) float64 {
	return float64(r.Instructions)*m.BaseCPI +
		m.MemOverlap*float64(r.MemStallCycles) +
		float64(r.WalkCycles)
}

// PerfectTLBCycles returns the runtime with a 100%-hit TLB: identical
// except no walk cycles.
func (m Model) PerfectTLBCycles(r Run) float64 {
	return m.Cycles(Run{Instructions: r.Instructions, MemStallCycles: r.MemStallCycles})
}

// Improvement returns the percentage speedup of the candidate run over
// the baseline run: 100 * (T_base/T_cand - 1). This is the quantity
// Figure 21 plots. The degenerate case of a zero-cycle candidate run
// is defined as 0 (no measurable improvement), never ±Inf — these
// values are serialized to JSON, which admits no non-finite numbers.
func (m Model) Improvement(baseline, candidate Run) float64 {
	tb, tc := m.Cycles(baseline), m.Cycles(candidate)
	if tc == 0 {
		return 0
	}
	return 100 * (tb - tc) / tc
}

// PerfectImprovement returns the speedup a perfect TLB would give over
// the baseline run (Figure 21's "Perfect" bars).
func (m Model) PerfectImprovement(baseline Run) float64 {
	tp := m.PerfectTLBCycles(baseline)
	if tp == 0 {
		return 0
	}
	return 100 * (m.Cycles(baseline) - tp) / tp
}

// WalkStallFraction returns the share of modeled runtime spent in page
// walks, a useful diagnostic for which benchmarks are translation-bound.
func (m Model) WalkStallFraction(r Run) float64 {
	t := m.Cycles(r)
	if t == 0 {
		return 0
	}
	return float64(r.WalkCycles) / t
}

// MPMI converts an event count to events-per-million-instructions,
// Table 1's metric.
func MPMI(events, instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(events) * 1e6 / float64(instructions)
}
