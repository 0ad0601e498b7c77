package colt

// The benchmark harness: one testing.B target per paper artifact
// (DESIGN.md's per-experiment index), each regenerating the table or
// figure at a reduced but structurally identical scale, plus
// micro-benchmarks for the simulator's hot paths. Run the cmd/
// experiments binary for full-scale regeneration.

import (
	"testing"

	"colt/internal/arch"
	"colt/internal/cache"
	"colt/internal/core"
	"colt/internal/experiments"
	"colt/internal/mm"
	"colt/internal/mmu"
	"colt/internal/pagetable"
	"colt/internal/rng"
	"colt/internal/vm"
	"colt/internal/workload"
)

// benchOpts shrinks runs so the full -bench=. sweep stays tractable.
func benchOpts() experiments.Options {
	o := experiments.QuickOptions()
	o.Refs = 30_000
	o.Warmup = 3_000
	return o
}

// BenchmarkTable1 regenerates Table 1 (real-system L1/L2 MPMI with THS
// on and off).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigures7to9 regenerates the THS-on contiguity CDFs.
func BenchmarkFigures7to9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ContiguityCDFs(experiments.SetupTHSOnNormal, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigures10to12 regenerates the THS-off contiguity CDFs.
func BenchmarkFigures10to12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ContiguityCDFs(experiments.SetupTHSOffNormal, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigures13to15 regenerates the low-compaction contiguity CDFs.
func BenchmarkFigures13to15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ContiguityCDFs(experiments.SetupTHSOffLow, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure16 regenerates the THS-on memhog sweep.
func BenchmarkFigure16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure16(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure17 regenerates the THS-off memhog sweep.
func BenchmarkFigure17(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure17(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure18 regenerates the miss-elimination comparison
// (baseline vs CoLT-SA/FA/All); Figure 21's performance numbers derive
// from the same evaluation run.
func BenchmarkFigure18(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ev, err := experiments.RunStandardEvaluation(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if rows := ev.Eliminations(); len(rows) != 14 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkParallelFig18 measures the experiment engine's scaling: the
// same quick Figure 18 evaluation with the worker count following
// GOMAXPROCS, so `go test -bench ParallelFig18 -cpu 1,4,8` reports the
// wall-clock at 1, 4, and 8 workers. Output is identical at every
// width (TestParallelDeterminism); only the time changes.
func BenchmarkParallelFig18(b *testing.B) {
	opts := benchOpts()
	opts.Parallel = 0 // track GOMAXPROCS, i.e. the -cpu value
	for i := 0; i < b.N; i++ {
		ev, err := experiments.RunStandardEvaluation(opts)
		if err != nil {
			b.Fatal(err)
		}
		if rows := ev.Eliminations(); len(rows) != 14 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkFigure19 regenerates the CoLT-SA index left-shift sweep.
func BenchmarkFigure19(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure19(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure20 regenerates the L2 associativity study.
func BenchmarkFigure20(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure20(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure21 regenerates the performance-improvement comparison
// (perfect TLB vs the CoLT designs).
func BenchmarkFigure21(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ev, err := experiments.RunStandardEvaluation(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if rows := ev.Performance(); len(rows) != 14 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkAblationFAL2Fill regenerates the §7.1.3 CoLT-FA L2-fill
// ablation.
func BenchmarkAblationFAL2Fill(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationFAL2Fill(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAllL2Fill regenerates the §7.1.3 CoLT-All L2-fill
// ablation.
func BenchmarkAblationAllL2Fill(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationAllL2Fill(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Micro-benchmarks for the simulator's hot paths.
// ---------------------------------------------------------------------

// BenchmarkHotPath meters the per-reference step — the loop every
// served byte comes out of — on the standing fixture (Mcf × THS-on ×
// four standard variants). It is an in-process A/B harness: run it on
// two builds, interleaved, on one host. The repository benchmark's
// sim-long workload (bench/) carries the same loop end to end.
func BenchmarkHotPath(b *testing.B) {
	h, err := experiments.NewHotPath()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := h.Steps(b.N); err != nil {
		b.Fatal(err)
	}
}

func newBenchWorld(b *testing.B, cfg core.Config) (*core.Hierarchy, []arch.VPN) {
	b.Helper()
	tbl, err := pagetable.New(&benchFrames{next: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	attr := arch.AttrPresent | arch.AttrWritable | arch.AttrUser
	pages := make([]arch.VPN, 4096)
	for i := range pages {
		vpn := arch.VPN(i)
		if err := tbl.Map(vpn, arch.PTE{PFN: arch.PFN(1<<22 + i), Attr: attr}); err != nil {
			b.Fatal(err)
		}
		pages[i] = vpn
	}
	walker := mmu.NewWalker(tbl, cache.DefaultHierarchy(), mmu.NewWalkCache(mmu.DefaultWalkCacheEntries))
	return core.NewHierarchy(cfg, walker), pages
}

type benchFrames struct{ next arch.PFN }

func (f *benchFrames) AllocFrame() (arch.PFN, error) { f.next++; return f.next, nil }
func (f *benchFrames) FreeFrame(arch.PFN)            {}

// BenchmarkHierarchyAccessBaseline measures one translation through the
// baseline two-level hierarchy.
func BenchmarkHierarchyAccessBaseline(b *testing.B) {
	benchHierarchy(b, core.BaselineConfig())
}

// BenchmarkHierarchyAccessCoLTSA measures one translation through the
// CoLT-SA hierarchy.
func BenchmarkHierarchyAccessCoLTSA(b *testing.B) {
	benchHierarchy(b, core.CoLTSAConfig(core.DefaultCoLTShift))
}

// BenchmarkHierarchyAccessCoLTAll measures one translation through the
// CoLT-All hierarchy.
func BenchmarkHierarchyAccessCoLTAll(b *testing.B) {
	benchHierarchy(b, core.CoLTAllConfig())
}

func benchHierarchy(b *testing.B, cfg core.Config) {
	h, pages := newBenchWorld(b, cfg)
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(pages[r.Zipf(len(pages), 0.9)])
	}
}

// BenchmarkBuddyAllocFree measures the buddy allocator's order-0
// fault/free cycle.
func BenchmarkBuddyAllocFree(b *testing.B) {
	pm := mm.NewPhysMem(1 << 16)
	buddy := mm.NewBuddy(pm)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pfn, err := buddy.AllocBlock(0)
		if err != nil {
			b.Fatal(err)
		}
		buddy.FreeRange(pfn, 1)
	}
}

// BenchmarkPageWalk measures a full four-level walk with MMU caching.
func BenchmarkPageWalk(b *testing.B) {
	tbl, err := pagetable.New(&benchFrames{next: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	attr := arch.AttrPresent | arch.AttrUser
	for i := 0; i < 4096; i++ {
		if err := tbl.Map(arch.VPN(i), arch.PTE{PFN: arch.PFN(i), Attr: attr}); err != nil {
			b.Fatal(err)
		}
	}
	w := mmu.NewWalker(tbl, cache.DefaultHierarchy(), mmu.NewWalkCache(mmu.DefaultWalkCacheEntries))
	r := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Walk(arch.VPN(r.Intn(4096)))
	}
}

// BenchmarkWorkloadStream measures reference generation.
func BenchmarkWorkloadStream(b *testing.B) {
	sys := vm.NewSystem(vm.Config{Frames: 1 << 14, THP: true, Compaction: mm.CompactionNormal})
	proc, err := sys.NewProcess()
	if err != nil {
		b.Fatal(err)
	}
	spec, _ := workload.ByName("Mcf")
	w, err := workload.Build(spec.Scale(0.02), proc, rng.New(3))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Next()
	}
}

// BenchmarkPrefetchComparison regenerates the CoLT-vs-prefetching
// extension table.
func BenchmarkPrefetchComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.PrefetchComparison(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRefinementsAblation regenerates the future-work refinements
// ablation.
func BenchmarkRefinementsAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RefinementsAblation(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVirtualization regenerates the nested-paging extension.
func BenchmarkVirtualization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.VirtualizationComparison(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSupSizeSensitivity regenerates the superpage-TLB size sweep.
func BenchmarkSupSizeSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SupSizeSensitivity(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkL2SizeSensitivity regenerates the L2 TLB size sweep.
func BenchmarkL2SizeSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.L2SizeSensitivity(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubblockComparison regenerates the CoLT-vs-subblocking
// extension table.
func BenchmarkSubblockComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SubblockComparison(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}
