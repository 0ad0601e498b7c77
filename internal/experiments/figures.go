package experiments

import (
	"fmt"
	"strings"

	"colt/internal/contig"
	"colt/internal/core"
	"colt/internal/metrics"
	"colt/internal/perf"
	"colt/internal/stats"
	"colt/internal/workload"
)

// ---------------------------------------------------------------------
// Table 1: real-system L1/L2 TLB MPMI with THS on and off.
// ---------------------------------------------------------------------

// Table1Row is one benchmark's miss rates on the characterization
// platform (64-entry L1 / 512-entry L2 TLBs).
type Table1Row struct {
	Bench, Suite                             string
	OnL1MPMI, OnL2MPMI, OffL1MPMI, OffL2MPMI float64
}

// Table1 regenerates the paper's Table 1. Each (benchmark × THS
// setting) pair is an independent scheduler job; a benchmark whose
// jobs fail under fault injection drops out of the table (both halves
// of its row are needed), the rest still render.
func Table1(opts Options) ([]Table1Row, error) {
	variant := []Variant{{Name: "real-system", Config: core.RealSystemBaselineConfig()}}
	type job struct {
		spec  workload.Spec
		setup SystemSetup
	}
	var jobs []job
	for _, spec := range workload.All() {
		jobs = append(jobs,
			job{spec, SetupTHSOnNormal},
			job{spec, SetupTHSOffNormal})
	}
	mpmis, ok, err := mapJobs(opts, jobs,
		func(j job) jobMeta { return jobMeta{kind: "table1", bench: j.spec.Name, setup: j.setup.Name} },
		func(j job, opts Options) ([2]float64, error) {
			res, err := RunBenchmark(j.spec, j.setup, opts, variant)
			if err != nil {
				return [2]float64{}, fmt.Errorf("table1 %s: %w", j.spec.Name, err)
			}
			l1, l2 := res.Variants[0].MPMI()
			return [2]float64{l1, l2}, nil
		})
	if err != nil {
		return nil, err
	}
	var rows []Table1Row
	for i, spec := range workload.All() {
		if !ok[2*i] || !ok[2*i+1] {
			continue
		}
		rows = append(rows, Table1Row{
			Bench: spec.Name, Suite: spec.Suite,
			OnL1MPMI: mpmis[2*i][0], OnL2MPMI: mpmis[2*i][1],
			OffL1MPMI: mpmis[2*i+1][0], OffL2MPMI: mpmis[2*i+1][1],
		})
	}
	return rows, nil
}

// RenderTable1 formats Table 1 as text.
func RenderTable1(rows []Table1Row) string {
	t := stats.NewTable("Benchmark", "Suite", "THS-on L1/L2 MPMI", "THS-off L1/L2 MPMI")
	for _, r := range rows {
		t.AddRow(r.Bench, r.Suite,
			fmt.Sprintf("%.0f/%.0f", r.OnL1MPMI, r.OnL2MPMI),
			fmt.Sprintf("%.0f/%.0f", r.OffL1MPMI, r.OffL2MPMI))
	}
	return t.String()
}

// ---------------------------------------------------------------------
// Figures 7-15: contiguity CDFs per kernel configuration.
// ---------------------------------------------------------------------

// ContiguityRow is one benchmark's contiguity distribution.
type ContiguityRow struct {
	Bench       string
	Average     float64       // page-weighted
	RunAverage  float64       // run-weighted (the paper's legend metric)
	Points      []stats.Point // CDF sampled at contig.PaperXAxis
	FracOver512 float64
	SuperPages  int
}

// ContiguityCDFs regenerates one CDF figure group: Figures 7-9 for
// SetupTHSOnNormal, 10-12 for SetupTHSOffNormal, 13-15 for
// SetupTHSOffLow.
func ContiguityCDFs(setup SystemSetup, opts Options) ([]ContiguityRow, error) {
	rows, ok, err := mapJobs(opts, workload.All(),
		func(spec workload.Spec) jobMeta {
			return jobMeta{kind: "contiguity", bench: spec.Name, setup: setup.Name}
		},
		func(spec workload.Spec, opts Options) (ContiguityRow, error) {
			res, err := RunContiguity(spec, setup, opts)
			if err != nil {
				return ContiguityRow{}, fmt.Errorf("contiguity %s under %s: %w", spec.Name, setup.Name, err)
			}
			return ContiguityRow{
				Bench:       spec.Name,
				Average:     res.AverageContiguity(),
				RunAverage:  res.RunWeightedAverage(),
				Points:      res.CDF.SampleAt(contig.PaperXAxis),
				FracOver512: res.FractionAtLeast(513),
				SuperPages:  res.SuperPages,
			}, nil
		})
	if err != nil {
		return nil, err
	}
	return surviving(rows, ok), nil
}

// RenderContiguity formats a CDF figure group as text.
func RenderContiguity(setup SystemSetup, rows []ContiguityRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Contiguity CDFs — %s\n", setup.Name)
	t := stats.NewTable("Benchmark", "PageAvg", "RunAvg", "P(<=1)", "P(<=4)", "P(<=16)", "P(<=64)", "P(<=256)", "P(<=1024)", ">512 frac")
	var avg, ravg stats.Summary
	for _, r := range rows {
		cells := []any{r.Bench, r.Average, r.RunAverage}
		for _, p := range r.Points {
			cells = append(cells, p.CumFrac)
		}
		cells = append(cells, r.FracOver512)
		t.AddRow(cells...)
		avg.Add(r.Average)
		ravg.Add(r.RunAverage)
	}
	t.AddRow("Average", avg.Mean(), ravg.Mean(), "", "", "", "", "", "", "")
	b.WriteString(t.String())
	return b.String()
}

// ---------------------------------------------------------------------
// Figures 16-17: average contiguity vs memhog load.
// ---------------------------------------------------------------------

// MemhogRow is one benchmark's average contiguity under increasing
// synthetic load.
type MemhogRow struct {
	Bench                        string
	NoMemhog, Memhog25, Memhog50 float64
}

// Figure16 (THS on) and Figure17 (THS off) regenerate the memhog sweeps.
func Figure16(opts Options) ([]MemhogRow, error) { return memhogSweep(opts, true) }

// Figure17 is the THS-off variant of the sweep.
func Figure17(opts Options) ([]MemhogRow, error) { return memhogSweep(opts, false) }

func memhogSweep(opts Options, ths bool) ([]MemhogRow, error) {
	pcts := []int{0, 25, 50}
	type job struct {
		spec  workload.Spec
		setup SystemSetup
	}
	var jobs []job
	for _, spec := range workload.All() {
		for _, pct := range pcts {
			setup := SetupTHSOnNormal
			if !ths {
				setup = SetupTHSOffNormal
			}
			setup.MemhogPct = pct
			setup.Name = fmt.Sprintf("%s, memhog(%d)", setup.Name, pct)
			jobs = append(jobs, job{spec, setup})
		}
	}
	avgs, ok, err := mapJobs(opts, jobs,
		func(j job) jobMeta { return jobMeta{kind: "memhog-sweep", bench: j.spec.Name, setup: j.setup.Name} },
		func(j job, opts Options) (float64, error) {
			res, err := RunContiguity(j.spec, j.setup, opts)
			if err != nil {
				return 0, fmt.Errorf("memhog sweep %s pct %d: %w", j.spec.Name, j.setup.MemhogPct, err)
			}
			return res.AverageContiguity(), nil
		})
	if err != nil {
		return nil, err
	}
	var rows []MemhogRow
	for i, spec := range workload.All() {
		// A sweep row compares the three loads; it needs all of them.
		if !ok[i*len(pcts)] || !ok[i*len(pcts)+1] || !ok[i*len(pcts)+2] {
			continue
		}
		rows = append(rows, MemhogRow{
			Bench:    spec.Name,
			NoMemhog: avgs[i*len(pcts)],
			Memhog25: avgs[i*len(pcts)+1],
			Memhog50: avgs[i*len(pcts)+2],
		})
	}
	return rows, nil
}

// RenderMemhog formats Figure 16 or 17 as text.
func RenderMemhog(title string, rows []MemhogRow) string {
	t := stats.NewTable("Benchmark", "No Memhog", "Memhog(25)", "Memhog(50)")
	for _, r := range rows {
		t.AddRow(r.Bench, r.NoMemhog, r.Memhog25, r.Memhog50)
	}
	t.AddAverage("Average")
	return title + "\n" + t.String()
}

// ---------------------------------------------------------------------
// Figures 18/21 share one evaluation run over the standard variants.
// ---------------------------------------------------------------------

// Evaluation holds the per-benchmark results of one variant set run
// under the paper's default kernel configuration.
type Evaluation struct {
	Results  []*BenchResult
	Baseline string // name of the baseline variant
}

// RunEvaluation runs every benchmark under the default kernel setup
// with the given TLB variants (the first is treated as the baseline).
// Benchmarks fan out across the scheduler; the variants of one
// benchmark share its goroutine because they consume one reference
// stream in lockstep. Under fault injection, benchmarks whose jobs
// fail terminally are dropped and the evaluation covers the survivors.
func RunEvaluation(opts Options, variants []Variant) (*Evaluation, error) {
	return runEvaluation(opts, "evaluation", "evaluation", variants)
}

// runEvaluation is RunEvaluation with the job kind and error label that
// name a driver's failure records under fault injection.
func runEvaluation(opts Options, kind, label string, variants []Variant) (*Evaluation, error) {
	results, ok, err := mapJobs(opts, workload.All(),
		func(spec workload.Spec) jobMeta {
			return jobMeta{kind: kind, bench: spec.Name, setup: SetupTHSOnNormal.Name}
		},
		func(spec workload.Spec, opts Options) (*BenchResult, error) {
			res, err := RunBenchmark(spec, SetupTHSOnNormal, opts, variants)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", label, spec.Name, err)
			}
			return res, nil
		})
	if err != nil {
		return nil, err
	}
	return &Evaluation{Results: surviving(results, ok), Baseline: variants[0].Name}, nil
}

// RunStandardEvaluation runs baseline + CoLT-SA/FA/All (Figures 18 and
// 21 derive from the same run).
func RunStandardEvaluation(opts Options) (*Evaluation, error) {
	return RunEvaluation(opts, StandardVariants())
}

// evalCache memoizes the standard evaluation for SharedRegistry, so one
// run of both fig18 and fig21 simulates it once. The evaluation's
// records go to the cache's own collector, which is merged into each
// caller's, so both figures' reports carry them.
type evalCache struct {
	ev  *Evaluation
	rec *metrics.Collector
}

func (c *evalCache) get(opts Options) (*Evaluation, error) {
	if c.ev == nil {
		inner := opts
		if opts.Metrics != nil {
			c.rec = metrics.NewCollector()
			inner.Metrics = c.rec
		}
		ev, err := RunStandardEvaluation(inner)
		if err != nil {
			return nil, err
		}
		c.ev = ev
	}
	if opts.Metrics != nil {
		opts.Metrics.Merge(c.rec)
	}
	return c.ev, nil
}

// EliminationRow reports, per benchmark, the percentage of baseline L1
// and L2 TLB misses each variant eliminates.
type EliminationRow struct {
	Bench string
	L1    map[string]float64
	L2    map[string]float64
}

// Eliminations computes Figure 18 (or 19, depending on the variant set)
// from the evaluation: one row per result that ran the baseline, so a
// RunEvaluation's rows line up with its Results.
func (e *Evaluation) Eliminations() []EliminationRow {
	var rows []EliminationRow
	for _, res := range e.Results {
		base, ok := res.Variant(e.Baseline)
		if !ok {
			continue
		}
		row := EliminationRow{Bench: res.Bench, L1: map[string]float64{}, L2: map[string]float64{}}
		for _, v := range res.Variants {
			if v.Name == e.Baseline {
				continue
			}
			row.L1[v.Name] = stats.PercentEliminated(float64(base.TLB.L1Misses), float64(v.TLB.L1Misses))
			row.L2[v.Name] = stats.PercentEliminated(float64(base.TLB.L2Misses), float64(v.TLB.L2Misses))
		}
		rows = append(rows, row)
	}
	return rows
}

// RenderEliminations formats an elimination figure as text.
func RenderEliminations(title string, variantNames []string, rows []EliminationRow) string {
	header := []string{"Benchmark"}
	for _, n := range variantNames {
		header = append(header, "L1 "+n, "L2 "+n)
	}
	t := stats.NewTable(header...)
	for _, r := range rows {
		cells := []any{r.Bench}
		for _, n := range variantNames {
			cells = append(cells, r.L1[n], r.L2[n])
		}
		t.AddRow(cells...)
	}
	t.AddAverage("Average")
	return title + "\n" + t.String()
}

// PerfRow is one benchmark's Figure-21 bar group: speedup (%) from a
// perfect TLB and from each CoLT variant.
type PerfRow struct {
	Bench   string
	Perfect float64
	Gains   map[string]float64
}

// Performance computes Figure 21 from the evaluation using the default
// cycle model.
func (e *Evaluation) Performance() []PerfRow {
	model := perf.Default()
	var rows []PerfRow
	for _, res := range e.Results {
		base, ok := res.Variant(e.Baseline)
		if !ok {
			continue
		}
		row := PerfRow{Bench: res.Bench, Gains: map[string]float64{}}
		row.Perfect = model.PerfectImprovement(base.Run)
		for _, v := range res.Variants {
			if v.Name == e.Baseline {
				continue
			}
			row.Gains[v.Name] = model.Improvement(base.Run, v.Run)
		}
		rows = append(rows, row)
	}
	return rows
}

// RenderPerformance formats Figure 21 as text.
func RenderPerformance(variantNames []string, rows []PerfRow) string {
	header := []string{"Benchmark", "Perfect"}
	header = append(header, variantNames...)
	t := stats.NewTable(header...)
	for _, r := range rows {
		cells := []any{r.Bench, r.Perfect}
		for _, n := range variantNames {
			cells = append(cells, r.Gains[n])
		}
		t.AddRow(cells...)
	}
	t.AddAverage("Average")
	return "Figure 21: performance improvement (%) over baseline\n" + t.String()
}

// ---------------------------------------------------------------------
// Figure 19: CoLT-SA index left-shift sweep.
// ---------------------------------------------------------------------

// ShiftVariants returns baseline plus CoLT-SA at shifts 1, 2, 3.
func ShiftVariants() []Variant {
	return []Variant{
		{Name: "baseline", Config: core.BaselineConfig()},
		{Name: "shift-1", Config: core.CoLTSAConfig(1)},
		{Name: "shift-2", Config: core.CoLTSAConfig(2)},
		{Name: "shift-3", Config: core.CoLTSAConfig(3)},
	}
}

// Figure19 runs the shift sweep and returns elimination rows.
func Figure19(opts Options) (*Evaluation, error) {
	return RunEvaluation(opts, ShiftVariants())
}

// ---------------------------------------------------------------------
// Figure 20: associativity study on the L2 TLB.
// ---------------------------------------------------------------------

// AssocRow reports the percentage of the 4-way no-CoLT L2 misses
// eliminated by each alternative.
type AssocRow struct {
	Bench             string
	SA4, NoCoLT8, SA8 float64
}

// AssocVariants returns the fixed 128-entry L2 at 4-way and 8-way, with
// and without CoLT-SA; the 4-way baseline comes first.
func AssocVariants() []Variant {
	base8 := core.BaselineConfig()
	base8.L2Sets, base8.L2Ways = 16, 8
	sa8 := core.CoLTSAConfig(core.DefaultCoLTShift)
	sa8.L2Sets, sa8.L2Ways = 16, 8
	return []Variant{
		{Name: "base-4way", Config: core.BaselineConfig()},
		{Name: "sa-4way", Config: core.CoLTSAConfig(core.DefaultCoLTShift)},
		{Name: "base-8way", Config: base8},
		{Name: "sa-8way", Config: sa8},
	}
}

// Figure20 runs the associativity study over AssocVariants.
func Figure20(opts Options) ([]AssocRow, error) {
	ev, err := RunEvaluation(opts, AssocVariants())
	if err != nil {
		return nil, err
	}
	var rows []AssocRow
	for _, e := range ev.Eliminations() {
		rows = append(rows, AssocRow{Bench: e.Bench, SA4: e.L2["sa-4way"], NoCoLT8: e.L2["base-8way"], SA8: e.L2["sa-8way"]})
	}
	return rows, nil
}

// RenderFigure20 formats the associativity study as text.
func RenderFigure20(rows []AssocRow) string {
	t := stats.NewTable("Benchmark", "4-way CoLT-SA", "8-way no CoLT", "8-way CoLT-SA")
	for _, r := range rows {
		t.AddRow(r.Bench, r.SA4, r.NoCoLT8, r.SA8)
	}
	t.AddAverage("Average")
	return "Figure 20: % of baseline (4-way, no CoLT) L2 misses eliminated\n" + t.String()
}

// ---------------------------------------------------------------------
// §7.1.3 ablations: the L2 fill policies of CoLT-FA and CoLT-All.
// ---------------------------------------------------------------------

// FAL2FillVariants returns baseline plus CoLT-FA with and without
// bringing the requested translation into the L2 TLB.
func FAL2FillVariants() []Variant {
	noFill := core.CoLTFAConfig()
	noFill.FAL2Fill = false
	return []Variant{
		{Name: "baseline", Config: core.BaselineConfig()},
		{Name: "fa-l2fill", Config: core.CoLTFAConfig()},
		{Name: "fa-nofill", Config: noFill},
	}
}

// AblationFAL2Fill evaluates FAL2FillVariants.
func AblationFAL2Fill(opts Options) (*Evaluation, error) {
	return RunEvaluation(opts, FAL2FillVariants())
}

// AllL2FillVariants returns baseline plus CoLT-All with and without
// inserting the clipped coalesced entry into the L2 TLB.
func AllL2FillVariants() []Variant {
	noFill := core.CoLTAllConfig()
	noFill.AllL2Fill = false
	return []Variant{
		{Name: "baseline", Config: core.BaselineConfig()},
		{Name: "all-l2fill", Config: core.CoLTAllConfig()},
		{Name: "all-nofill", Config: noFill},
	}
}

// AblationAllL2Fill evaluates AllL2FillVariants.
func AblationAllL2Fill(opts Options) (*Evaluation, error) {
	return RunEvaluation(opts, AllL2FillVariants())
}
