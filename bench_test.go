package colt

// The benchmark harness: one sub-benchmark per registry artifact
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

// BenchmarkRegistry regenerates every registry artifact at a reduced
// but structurally identical scale, one sub-benchmark per entry
// (Registry/table1 … Registry/timeline). Entries are independent, so
// Registry/fig21 re-runs the evaluation Registry/fig18 times. The
// worker count follows GOMAXPROCS, so `-bench 'Registry/fig18$' -cpu
// 1,4,8` reports the engine's wall-clock at 1, 4 and 8 workers; the
// output is identical at every width (TestParallelDeterminism).
func BenchmarkRegistry(b *testing.B) {
	opts := experiments.QuickOptions()
	opts.Refs = 30_000
	opts.Warmup = 3_000
	for _, e := range experiments.Registry() {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := e.Run(opts); err != nil {
					b.Fatal(err)
				}
			}
		})
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
