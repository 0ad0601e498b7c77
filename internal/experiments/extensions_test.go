package experiments

import (
	"strings"
	"testing"

	"colt/internal/core"
	"colt/internal/workload"
)

func TestPrefetchComparisonSingleBench(t *testing.T) {
	// Run the variant set on one benchmark by hand to keep the test
	// fast, checking the prefetch bookkeeping plumbs through.
	spec, _ := workload.ByName("Bzip2")
	variants := []Variant{
		{Name: "baseline", Config: core.BaselineConfig()},
		{Name: "seq-prefetch", Config: core.SeqPrefetchConfig()},
	}
	res, err := RunBenchmark(spec, SetupTHSOnNormal, quickest(), variants)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := res.Variant("baseline")
	pf, _ := res.Variant("seq-prefetch")
	if pf.Prefetch.PrefetchWalks == 0 {
		t.Fatal("no prefetch walks recorded")
	}
	if pf.Prefetch.BufferHits == 0 {
		t.Fatal("prefetcher never hit on a streaming benchmark")
	}
	if pf.TLB.L2Misses >= base.TLB.L2Misses {
		t.Fatalf("prefetching did not reduce demand walks on Bzip2: %d vs %d",
			pf.TLB.L2Misses, base.TLB.L2Misses)
	}
	out := RenderPrefetchComparison([]PrefetchRow{{
		Bench: "x", PrefetchElim: 10, SAElim: 40, AllElim: 50, WalkOverheadPct: 120,
	}})
	if !strings.Contains(out, "Prefetch walk overhead") {
		t.Fatal("render malformed")
	}
}

func TestRefinementVariants(t *testing.T) {
	vs := RefinementVariants()
	if len(vs) != 5 {
		t.Fatalf("variants = %d", len(vs))
	}
	if !vs[2].Config.Refinements.GracefulInvalidation {
		t.Fatal("graceful variant not configured")
	}
	if !vs[3].Config.Refinements.CoalescingAwareLRU {
		t.Fatal("bias variant not configured")
	}
	spec, _ := workload.ByName("Gobmk")
	res, err := RunBenchmark(spec, SetupTHSOnNormal, quickest(), vs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Variants) != 5 {
		t.Fatalf("results = %d", len(res.Variants))
	}
}

func TestSupSizeSensitivitySingleBench(t *testing.T) {
	spec, _ := workload.ByName("Milc")
	variants := []Variant{{Name: "baseline", Config: core.BaselineConfig()}}
	for _, n := range SupSizes {
		cfg := core.CoLTFAConfig()
		cfg.SupEntries = n
		variants = append(variants, Variant{Name: sizeName("fa", n), Config: cfg})
	}
	res, err := RunBenchmark(spec, SetupTHSOnNormal, quickest(), variants)
	if err != nil {
		t.Fatal(err)
	}
	// Bigger superpage TLBs must not lose misses (monotone in quick
	// runs is too strict; just require the 32-entry config to beat the
	// 4-entry config).
	small, _ := res.Variant(sizeName("fa", 4))
	big, _ := res.Variant(sizeName("fa", 32))
	if big.TLB.L2Misses > small.TLB.L2Misses {
		t.Fatalf("32-entry FA worse than 4-entry: %d vs %d", big.TLB.L2Misses, small.TLB.L2Misses)
	}
	out := RenderSupSizeSensitivity([]SupSizeRow{{Bench: "x", Elim: map[int]float64{4: 1, 8: 2, 16: 3, 32: 4}}})
	if !strings.Contains(out, "FA 32-entry") {
		t.Fatal("render malformed")
	}
}

func sizeName(prefix string, n int) string {
	return prefix + "-" + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestL2SizeSensitivitySingleBench(t *testing.T) {
	spec, _ := workload.ByName("Omnetpp")
	var variants []Variant
	for _, n := range []int{64, 512} {
		base := core.BaselineConfig()
		base.L2Sets = n / base.L2Ways
		variants = append(variants, Variant{Name: sizeName("base", n), Config: base})
	}
	res, err := RunBenchmark(spec, SetupTHSOnNormal, quickest(), variants)
	if err != nil {
		t.Fatal(err)
	}
	small, _ := res.Variant("base-64")
	big, _ := res.Variant("base-512")
	if big.TLB.L2Misses > small.TLB.L2Misses {
		t.Fatalf("512-entry L2 worse than 64-entry: %d vs %d", big.TLB.L2Misses, small.TLB.L2Misses)
	}
	out := RenderL2SizeSensitivity([]L2SizeRow{{
		Bench:    "x",
		BaseMPMI: map[int]float64{64: 4, 128: 3, 256: 2, 512: 1},
		SAMPMI:   map[int]float64{64: 2, 128: 1.5, 256: 1, 512: 0.5},
	}})
	if !strings.Contains(out, "sa-512") {
		t.Fatal("render malformed")
	}
}

func TestVirtualizationSingleBench(t *testing.T) {
	opts := quickest()
	opts.Refs = 25_000
	spec, _ := workload.ByName("Bzip2") // streaming: misses are plentiful
	res, err := runVirtualized(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	base, all := res[0], res[1]
	if base.TLB.Accesses != uint64(opts.Refs) {
		t.Fatalf("accesses = %d", base.TLB.Accesses)
	}
	if base.TLB.L2Misses == 0 {
		t.Fatal("no virtualized misses")
	}
	if all.TLB.L2Misses >= base.TLB.L2Misses {
		t.Fatalf("CoLT-All did not help under virtualization: %d vs %d",
			all.TLB.L2Misses, base.TLB.L2Misses)
	}
	// 2D walks must cost more per walk than a flat 4-level walk ever
	// could at LLC-hit latency: check walk cycles per walk > 40.
	perWalk := float64(base.Run.WalkCycles) / float64(base.TLB.Walks)
	if perWalk < 40 {
		t.Fatalf("nested walks too cheap: %.1f cycles/walk", perWalk)
	}
	out := RenderVirtualization([]VirtRow{{Bench: "x", NativeElim: 50, VirtElim: 55, NativeSpeedup: 10, VirtSpeedup: 25, WalkInflation: 2.5}})
	if !strings.Contains(out, "Walk inflation") {
		t.Fatal("render malformed")
	}
}

func TestContiguityTimeline(t *testing.T) {
	opts := quickest()
	opts.Refs = 6_000
	spec, _ := workload.ByName("Gobmk")
	points, err := ContiguityTimeline(spec, SetupTHSOnNormal, opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("points = %d", len(points))
	}
	if points[0].RefsDone != 0 || points[3].RefsDone < opts.Refs-3 {
		t.Fatalf("sample positions wrong: %+v", points)
	}
	for _, p := range points {
		if p.MappedPages <= 0 || p.PageAvg < 1 {
			t.Fatalf("degenerate point %+v", p)
		}
	}
	if _, err := ContiguityTimeline(spec, SetupTHSOnNormal, opts, 1); err == nil {
		t.Fatal("single-sample timeline accepted")
	}
	out := RenderTimeline("Gobmk", SetupTHSOnNormal, points)
	if !strings.Contains(out, "Contiguity over time") {
		t.Fatal("render malformed")
	}
}

// TestSubblockRejectedPctIsAShare runs the subblock comparison at
// GoldenOptions (the CLI's -quick -refs 20000): the align-rejected
// column counts fills, so every row lies in [0, 100].
func TestSubblockRejectedPctIsAShare(t *testing.T) {
	rows, err := SubblockComparison(GoldenOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(workload.All()) {
		t.Fatalf("%d rows, want %d", len(rows), len(workload.All()))
	}
	for _, r := range rows {
		if r.RejectedPct < 0 || r.RejectedPct > 100 {
			t.Errorf("%s: align-rejected %.2f%% outside [0, 100]", r.Bench, r.RejectedPct)
		}
	}
}

func TestSubblockComparisonSingleBench(t *testing.T) {
	spec, _ := workload.ByName("Mcf")
	variants := []Variant{
		{Name: "baseline", Config: core.BaselineConfig()},
		{Name: "partial-subblock", Config: core.PartialSubblockConfig()},
		{Name: "colt-sa", Config: core.CoLTSAConfig(core.DefaultCoLTShift)},
	}
	res, err := RunBenchmark(spec, SetupTHSOnNormal, quickest(), variants)
	if err != nil {
		t.Fatal(err)
	}
	sb, _ := res.Variant("partial-subblock")
	if sb.TLB.Accesses == 0 {
		t.Fatal("subblock variant did not run")
	}
	out := RenderSubblockComparison([]SubblockRow{{Bench: "x", SubblockElim: 20, SAElim: 50, RejectedPct: 60}})
	if !strings.Contains(out, "Align-rejected") {
		t.Fatal("render malformed")
	}
}
