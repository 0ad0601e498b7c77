package experiments

import (
	"fmt"

	"colt/internal/core"
	"colt/internal/stats"
)

// This file holds the experiments that go beyond the paper's evaluation:
// the prefetching comparison the paper argues against qualitatively
// (§2.1/§2.4), ablations of the paper's stated future-work refinements
// (§4.1.5/§4.2.3), and sensitivity sweeps over the structure sizes the
// paper fixes.

// ---------------------------------------------------------------------
// CoLT vs sequential TLB prefetching.
// ---------------------------------------------------------------------

// PrefetchRow compares miss elimination and walk traffic: prefetching
// buys its hits with extra page walks, CoLT's coalescing is free.
type PrefetchRow struct {
	Bench string
	// Elimination of baseline L2 misses (demand walks).
	PrefetchElim, SAElim, AllElim float64
	// WalkOverheadPct is the prefetcher's extra page-walk traffic as a
	// percentage of the baseline's demand walks.
	WalkOverheadPct float64
}

// PrefetchVariants returns baseline, the sequential prefetcher, CoLT-SA
// and CoLT-All.
func PrefetchVariants() []Variant {
	return []Variant{
		{Name: "baseline", Config: core.BaselineConfig()},
		{Name: "seq-prefetch", Config: core.SeqPrefetchConfig()},
		{Name: "colt-sa", Config: core.CoLTSAConfig(core.DefaultCoLTShift)},
		{Name: "colt-all", Config: core.CoLTAllConfig()},
	}
}

// PrefetchComparison runs PrefetchVariants over the identical streams.
func PrefetchComparison(opts Options) ([]PrefetchRow, error) {
	ev, err := runEvaluation(opts, "prefetch", "prefetch comparison", PrefetchVariants())
	if err != nil {
		return nil, err
	}
	var rows []PrefetchRow
	for i, e := range ev.Eliminations() {
		base, _ := ev.Results[i].Variant("baseline")
		pf, _ := ev.Results[i].Variant("seq-prefetch")
		row := PrefetchRow{
			Bench:        e.Bench,
			PrefetchElim: e.L2["seq-prefetch"],
			SAElim:       e.L2["colt-sa"],
			AllElim:      e.L2["colt-all"],
		}
		if base.TLB.Walks > 0 {
			row.WalkOverheadPct = 100 * float64(pf.Prefetch.PrefetchWalks) / float64(base.TLB.Walks)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderPrefetchComparison formats the comparison as text.
func RenderPrefetchComparison(rows []PrefetchRow) string {
	t := stats.NewTable("Benchmark", "Prefetch L2 elim", "CoLT-SA L2 elim", "CoLT-All L2 elim", "Prefetch walk overhead")
	for _, r := range rows {
		t.AddRow(r.Bench, r.PrefetchElim, r.SAElim, r.AllElim, r.WalkOverheadPct)
	}
	t.AddAverage("Average")
	return "Extension: CoLT vs sequential TLB prefetching (% of baseline L2 misses eliminated;\n" +
		"prefetch overhead = extra walks as % of baseline demand walks)\n" + t.String()
}

// ---------------------------------------------------------------------
// CoLT vs partial-subblock TLBs (§2.3's prior approach).
// ---------------------------------------------------------------------

// SubblockRow compares the alignment-restricted partial-subblock TLB
// against CoLT-SA at identical geometry.
type SubblockRow struct {
	Bench string
	// Elimination of baseline L2 misses.
	SubblockElim, SAElim float64
	// RejectedPct is the share of subblock fills that could not share
	// an entry because the frame was misaligned.
	RejectedPct float64
}

// SubblockVariants returns baseline, partial-subblock, and CoLT-SA.
func SubblockVariants() []Variant {
	return []Variant{
		{Name: "baseline", Config: core.BaselineConfig()},
		{Name: "partial-subblock", Config: core.PartialSubblockConfig()},
		{Name: "colt-sa", Config: core.CoLTSAConfig(core.DefaultCoLTShift)},
	}
}

// SubblockComparison runs SubblockVariants over the identical streams.
func SubblockComparison(opts Options) ([]SubblockRow, error) {
	ev, err := runEvaluation(opts, "subblock", "subblock comparison", SubblockVariants())
	if err != nil {
		return nil, err
	}
	var rows []SubblockRow
	for i, e := range ev.Eliminations() {
		sb, _ := ev.Results[i].Variant("partial-subblock")
		rows = append(rows, SubblockRow{
			Bench:        e.Bench,
			SubblockElim: e.L2["partial-subblock"],
			SAElim:       e.L2["colt-sa"],
			RejectedPct:  sb.SubblockRejectedPct,
		})
	}
	return rows, nil
}

// RenderSubblockComparison formats the comparison as text.
func RenderSubblockComparison(rows []SubblockRow) string {
	t := stats.NewTable("Benchmark", "Subblock L2 elim", "CoLT-SA L2 elim", "Align-rejected %")
	for _, r := range rows {
		t.AddRow(r.Bench, r.SubblockElim, r.SAElim, r.RejectedPct)
	}
	t.AddAverage("Average")
	return "Extension: CoLT-SA vs partial-subblock TLBs (Talluri & Hill; §2.3)\n" +
		"(elim = % of baseline L2 misses; align-rejected = subblock fills blocked by physical misalignment)\n" +
		t.String()
}

// ---------------------------------------------------------------------
// Future-work refinements ablation (§4.1.5/§4.2.3).
// ---------------------------------------------------------------------

// RefinementVariants returns CoLT-All plus each refinement toggled.
func RefinementVariants() []Variant {
	graceful := core.CoLTAllConfig()
	graceful.Refinements.GracefulInvalidation = true
	biased := core.CoLTAllConfig()
	biased.Refinements.CoalescingAwareLRU = true
	both := core.CoLTAllConfig()
	both.Refinements.GracefulInvalidation = true
	both.Refinements.CoalescingAwareLRU = true
	return []Variant{
		{Name: "baseline", Config: core.BaselineConfig()},
		{Name: "colt-all", Config: core.CoLTAllConfig()},
		{Name: "all+graceful", Config: graceful},
		{Name: "all+biaslru", Config: biased},
		{Name: "all+both", Config: both},
	}
}

// RefinementsAblation evaluates the paper's future-work options.
func RefinementsAblation(opts Options) (*Evaluation, error) {
	return RunEvaluation(opts, RefinementVariants())
}

// ---------------------------------------------------------------------
// Sensitivity sweeps.
// ---------------------------------------------------------------------

// SupSizeRow sweeps the coalesced superpage TLB's capacity for CoLT-FA
// (the paper fixes 8 entries to pay for range comparators; this
// quantifies what that conservatism costs).
type SupSizeRow struct {
	Bench string
	// Elim maps superpage-TLB entry count to % of baseline L2 misses
	// eliminated by CoLT-FA at that size.
	Elim map[int]float64
}

// SupSizes swept by SupSizeSensitivity.
var SupSizes = []int{4, 8, 16, 32}

// SupSizeVariants returns baseline plus CoLT-FA at each of SupSizes.
func SupSizeVariants() []Variant {
	variants := []Variant{{Name: "baseline", Config: core.BaselineConfig()}}
	for _, n := range SupSizes {
		cfg := core.CoLTFAConfig()
		cfg.SupEntries = n
		variants = append(variants, Variant{Name: fmt.Sprintf("fa-%d", n), Config: cfg})
	}
	return variants
}

// SupSizeSensitivity runs CoLT-FA at several superpage-TLB sizes.
func SupSizeSensitivity(opts Options) ([]SupSizeRow, error) {
	ev, err := runEvaluation(opts, "sup-size", "sup-size sweep", SupSizeVariants())
	if err != nil {
		return nil, err
	}
	var rows []SupSizeRow
	for _, e := range ev.Eliminations() {
		row := SupSizeRow{Bench: e.Bench, Elim: map[int]float64{}}
		for _, n := range SupSizes {
			row.Elim[n] = e.L2[fmt.Sprintf("fa-%d", n)]
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderSupSizeSensitivity formats the sweep as text.
func RenderSupSizeSensitivity(rows []SupSizeRow) string {
	header := []string{"Benchmark"}
	for _, n := range SupSizes {
		header = append(header, fmt.Sprintf("FA %d-entry", n))
	}
	t := stats.NewTable(header...)
	for _, r := range rows {
		cells := []any{r.Bench}
		for _, n := range SupSizes {
			cells = append(cells, r.Elim[n])
		}
		t.AddRow(cells...)
	}
	t.AddAverage("Average")
	return "Extension: CoLT-FA superpage-TLB size sensitivity (% of baseline L2 misses eliminated)\n" + t.String()
}

// L2SizeRow sweeps the L2 TLB's capacity for the baseline and CoLT-SA:
// how much conventional capacity does coalescing substitute for?
type L2SizeRow struct {
	Bench string
	// BaseMPMI and SAMPMI map an L2 entry count to the baseline's and
	// CoLT-SA's L2 MPMI at that size.
	BaseMPMI map[int]float64
	SAMPMI   map[int]float64
}

// L2Sizes swept by L2SizeSensitivity (entries; 4-way throughout).
var L2Sizes = []int{64, 128, 256, 512}

// L2SizeVariants returns baseline and CoLT-SA at each of L2Sizes.
func L2SizeVariants() []Variant {
	var variants []Variant
	for _, n := range L2Sizes {
		base := core.BaselineConfig()
		base.L2Sets = n / base.L2Ways
		sa := core.CoLTSAConfig(core.DefaultCoLTShift)
		sa.L2Sets = n / sa.L2Ways
		variants = append(variants,
			Variant{Name: fmt.Sprintf("base-%d", n), Config: base},
			Variant{Name: fmt.Sprintf("sa-%d", n), Config: sa})
	}
	return variants
}

// L2SizeSensitivity runs baseline and CoLT-SA across L2 TLB sizes.
func L2SizeSensitivity(opts Options) ([]L2SizeRow, error) {
	ev, err := runEvaluation(opts, "l2-size", "l2-size sweep", L2SizeVariants())
	if err != nil {
		return nil, err
	}
	var rows []L2SizeRow
	for _, res := range ev.Results {
		row := L2SizeRow{Bench: res.Bench, BaseMPMI: map[int]float64{}, SAMPMI: map[int]float64{}}
		for _, n := range L2Sizes {
			base, _ := res.Variant(fmt.Sprintf("base-%d", n))
			sa, _ := res.Variant(fmt.Sprintf("sa-%d", n))
			_, row.BaseMPMI[n] = base.MPMI()
			_, row.SAMPMI[n] = sa.MPMI()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderL2SizeSensitivity formats the sweep as text.
func RenderL2SizeSensitivity(rows []L2SizeRow) string {
	header := []string{"Benchmark"}
	for _, n := range L2Sizes {
		header = append(header, fmt.Sprintf("base-%d", n), fmt.Sprintf("sa-%d", n))
	}
	t := stats.NewTable(header...)
	for _, r := range rows {
		cells := []any{r.Bench}
		for _, n := range L2Sizes {
			cells = append(cells, r.BaseMPMI[n], r.SAMPMI[n])
		}
		t.AddRow(cells...)
	}
	return "Extension: L2 TLB size sensitivity (L2 misses per million instructions)\n" + t.String()
}
