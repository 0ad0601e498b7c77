// Package colt is a simulation library reproducing "CoLT: Coalesced
// Large-Reach TLBs" (Pham, Vaidyanathan, Jaleel, Bhattacharjee —
// MICRO 2012).
//
// The library bundles a Linux-style memory-management simulator (buddy
// allocator, memory-compaction daemon, transparent hugepage support,
// frame-backed radix page tables), a two-level TLB simulator
// implementing the paper's three coalescing designs (CoLT-SA, CoLT-FA,
// CoLT-All), a cache hierarchy and MMU page-walk model, synthetic
// models of the paper's fourteen benchmarks, and drivers that
// regenerate every table and figure of the evaluation.
//
// This package is the high-level entry point: pick a benchmark, a
// kernel configuration, and TLB policies, and get miss-rate and
// performance reports. It is a thin caller of the experiment engine
// (internal/experiments): its presets, kernel configurations and
// policies are the engine's own, so under the paper's kernels its
// numbers are the registry's rows — RunBenchmark under DefaultKernel
// reads Figures 18 and 21, MeasureContiguity the contiguity CDFs
// (Figures 7-15). Power users can reach the building blocks directly
// under internal/ (core for the TLB designs, mm/vm for the OS model,
// experiments for the paper's figure drivers).
package colt

import (
	"colt/internal/experiments"
	"colt/internal/mm"
	"colt/internal/workload"
)

// Policy names a TLB configuration: an entry of the engine's policy
// table (experiments.Policies).
type Policy string

// The four policies of the paper's evaluation, plus the sequential
// TLB-prefetching comparison point the paper argues against (§2.1).
const (
	Baseline    Policy = "baseline"
	CoLTSA      Policy = "colt-sa"
	CoLTFA      Policy = "colt-fa"
	CoLTAll     Policy = "colt-all"
	SeqPrefetch Policy = "seq-prefetch"
)

// AllPolicies returns baseline plus the three CoLT designs.
func AllPolicies() []Policy { return []Policy{Baseline, CoLTSA, CoLTFA, CoLTAll} }

// KernelConfig selects the simulated OS behaviour (paper §5.1.1).
type KernelConfig struct {
	// THP enables transparent hugepage support ("THS on").
	THP bool
	// LowCompaction models the disabled defrag flag (rare compaction).
	LowCompaction bool
	// MemhogPct runs the memhog fragmenter over this percentage of
	// physical memory (0, 25, or 50 in the paper).
	MemhogPct int
}

// DefaultKernel returns the paper's default Linux setting: THS on,
// normal compaction, no memhog.
func DefaultKernel() KernelConfig { return KernelConfig{THP: true} }

func (k KernelConfig) setup() experiments.SystemSetup {
	mode := mm.CompactionNormal
	if k.LowCompaction {
		mode = mm.CompactionLow
	}
	return experiments.KernelSetup(k.THP, mode, k.MemhogPct)
}

// Options sizes a simulation. Its fields override one of the engine's
// presets: the quick one (QuickOptions) when FootprintScale is below
// half the paper's footprint, else the default one (DefaultOptions),
// whose values are listed below. The preset also sets what Options
// cannot: the cold-data scale and the background churn.
type Options struct {
	// MemoryFrames is physical memory in 4 KB frames (default 2^18 =
	// 1 GB).
	MemoryFrames int
	// FootprintScale scales benchmark footprints (default 1.0).
	FootprintScale float64
	// References is the number of measured memory references (default
	// 2,000,000).
	References int
	// Warmup references before statistics reset (default 200,000).
	Warmup int
	// Seed makes runs reproducible (default fixed).
	Seed uint64
}

// DefaultOptions returns full-scale settings: the engine's
// DefaultOptions.
func DefaultOptions() Options { return preset(experiments.DefaultOptions()) }

// QuickOptions returns small, fast settings for demos and tests: the
// engine's QuickOptions.
func QuickOptions() Options { return preset(experiments.QuickOptions()) }

func preset(o experiments.Options) Options {
	return Options{
		MemoryFrames:   o.Frames,
		FootprintScale: o.Scale,
		References:     o.Refs,
		Warmup:         o.Warmup,
		Seed:           o.Seed,
	}
}

// internal resolves o onto the engine's options, as Options describes,
// so QuickOptions and DefaultOptions resolve to exactly the engine's
// presets.
func (o Options) internal() experiments.Options {
	base := experiments.DefaultOptions()
	if o.FootprintScale > 0 && o.FootprintScale < base.Scale/2 {
		base = experiments.QuickOptions()
	}
	if o.MemoryFrames > 0 {
		base.Frames = o.MemoryFrames
	}
	if o.FootprintScale > 0 {
		base.Scale = o.FootprintScale
	}
	if o.References > 0 {
		base.Refs = o.References
	}
	if o.Warmup > 0 {
		base.Warmup = o.Warmup
	}
	if o.Seed != 0 {
		base.Seed = o.Seed
	}
	return base
}

// Benchmarks lists the paper's fourteen evaluation workloads in
// Table-1 order.
func Benchmarks() []string { return workload.Names() }

// PolicyReport is one TLB policy's measurements for a benchmark run.
type PolicyReport struct {
	Policy Policy
	// L1MPMI and L2MPMI are misses per million instructions (Table 1's
	// metric).
	L1MPMI, L2MPMI float64
	// L1Eliminated/L2Eliminated are the percentages of the baseline's
	// misses this policy removed (Figure 18's metric); zero for the
	// baseline itself.
	L1Eliminated, L2Eliminated float64
	// SpeedupPct is the modeled performance improvement over the
	// baseline (Figure 21's metric).
	SpeedupPct float64
	// WalkCycles is the total serialized page-walk latency.
	WalkCycles uint64
}

// Report is the result of one benchmark simulation.
type Report struct {
	Bench        string
	Instructions uint64
	// AvgContiguity is the page-weighted average contiguity of the
	// benchmark's address space under this kernel configuration.
	AvgContiguity float64
	// PerfectSpeedupPct is the improvement a 100%-hit TLB would give.
	PerfectSpeedupPct float64
	Policies          []PolicyReport
}

// PolicyReport returns the named policy's report.
func (r *Report) PolicyReport(p Policy) (PolicyReport, bool) {
	for _, pr := range r.Policies {
		if pr.Policy == p {
			return pr, true
		}
	}
	return PolicyReport{}, false
}

// RunBenchmark simulates one benchmark under the kernel configuration,
// evaluating every requested policy over the identical reference
// stream. If Baseline is among the policies, elimination and speedup
// figures are computed against it, as Figures 18 and 21 compute them.
func RunBenchmark(bench string, kernel KernelConfig, opts Options, policies []Policy) (*Report, error) {
	spec, err := workload.ByName(bench)
	if err != nil {
		return nil, err
	}
	if len(policies) == 0 {
		policies = AllPolicies()
	}
	variants := make([]experiments.Variant, len(policies))
	for i, p := range policies {
		if variants[i], err = experiments.PolicyVariant(string(p)); err != nil {
			return nil, err
		}
	}
	res, err := experiments.RunBenchmark(spec, kernel.setup(), opts.internal(), variants)
	if err != nil {
		return nil, err
	}
	// The figures' own arithmetic, over a one-benchmark evaluation: it
	// yields one row when Baseline ran and none otherwise, and a
	// missing row or entry reads as zero.
	ev := experiments.Evaluation{Results: []*experiments.BenchResult{res}, Baseline: string(Baseline)}
	var elim experiments.EliminationRow
	var perf experiments.PerfRow
	if rows := ev.Eliminations(); len(rows) > 0 {
		elim = rows[0]
	}
	if rows := ev.Performance(); len(rows) > 0 {
		perf = rows[0]
	}
	report := &Report{
		Bench:             bench,
		Instructions:      res.Instructions,
		AvgContiguity:     res.Contig.AverageContiguity(),
		PerfectSpeedupPct: perf.Perfect,
	}
	for _, p := range policies {
		v, _ := res.Variant(string(p))
		l1, l2 := v.MPMI()
		report.Policies = append(report.Policies, PolicyReport{
			Policy:       p,
			L1MPMI:       l1,
			L2MPMI:       l2,
			L1Eliminated: elim.L1[string(p)],
			L2Eliminated: elim.L2[string(p)],
			SpeedupPct:   perf.Gains[string(p)],
			WalkCycles:   v.Run.WalkCycles,
		})
	}
	return report, nil
}

// ContiguityReport summarizes a contiguity characterization run
// (Figures 7-17's raw material).
type ContiguityReport struct {
	Bench string
	// Average is the page-weighted mean contiguity-run length.
	Average float64
	// CDF maps run-length thresholds (1, 4, 16, 64, 256, 1024) to the
	// cumulative fraction of pages at or below them.
	CDF map[int]float64
	// SuperpagePages counts pages backed by 2 MB mappings.
	SuperpagePages int
	// FracOver512 is the fraction of non-superpage pages with more
	// than 512-page contiguity (superpage-sized but unusable by THP).
	FracOver512 float64
}

// MeasureContiguity builds the benchmark's memory under the kernel
// configuration and scans its page table, reproducing the paper's
// real-system characterization for one workload.
func MeasureContiguity(bench string, kernel KernelConfig, opts Options) (*ContiguityReport, error) {
	spec, err := workload.ByName(bench)
	if err != nil {
		return nil, err
	}
	res, err := experiments.RunContiguity(spec, kernel.setup(), opts.internal())
	if err != nil {
		return nil, err
	}
	rep := &ContiguityReport{
		Bench:          bench,
		Average:        res.AverageContiguity(),
		CDF:            make(map[int]float64),
		SuperpagePages: res.SuperPages,
		FracOver512:    res.FractionAtLeast(513),
	}
	for _, x := range []int{1, 4, 16, 64, 256, 1024} {
		rep.CDF[x] = res.CDF.At(float64(x))
	}
	return rep, nil
}
