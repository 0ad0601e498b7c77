package experiments

import (
	"fmt"
	"time"

	"colt/internal/arch"
	"colt/internal/cache"
	"colt/internal/core"
	"colt/internal/fault"
	"colt/internal/mm"
	"colt/internal/mmu"
	"colt/internal/pagetable"
	"colt/internal/perf"
	"colt/internal/rng"
	"colt/internal/stats"
	"colt/internal/vm"
	"colt/internal/workload"
)

// The virtualization extension: the paper motivates CoLT partly through
// virtualized systems, where TLB misses cost two-dimensional page walks
// and degrade performance by up to 50% (§1), and concludes that "CoLT
// will become even more critical as ... virtualization become[s]
// prevalent" (§8). This experiment quantifies that: the same benchmark
// and TLB designs run behind a nested walker, where the guest OS
// allocates guest-physical memory (first contiguity dimension) and the
// host backs guest-physical frames from its own fragmented allocator
// (second dimension). CoLT coalesces only pages contiguous in BOTH
// dimensions, and every eliminated miss saves an up-to-24-access walk.

// VirtRow is one benchmark's native-vs-virtualized comparison.
type VirtRow struct {
	Bench string
	// L2 elimination by CoLT-All, native and virtualized.
	NativeElim, VirtElim float64
	// Modeled speedups of CoLT-All over the baseline.
	NativeSpeedup, VirtSpeedup float64
	// Walk-cycle inflation of the virtualized baseline over native.
	WalkInflation float64
}

// hostFrameSource allocates host page-table frames from the host
// system's buddy allocator.
type hostFrameSource struct{ sys *vm.System }

func (h *hostFrameSource) AllocFrame() (arch.PFN, error) {
	pfn, err := h.sys.Buddy.AllocBlock(0)
	if err != nil {
		return 0, err
	}
	h.sys.Phys.SetOwner(pfn, mm.PageOwner{PID: mm.KernelPID}, false)
	return pfn, nil
}

func (h *hostFrameSource) FreeFrame(pfn arch.PFN) { h.sys.Buddy.FreeRange(pfn, 1) }

// buildHostBacking creates the host (nested) page table backing every
// guest-physical frame, allocating host frames from a churned host
// system so the second dimension has realistic contiguity.
func buildHostBacking(guestFrames int, opts Options, bench string) (*pagetable.Table, error) {
	hostOpts := opts
	// The host needs room for its own churn residual (~26%), every
	// guest-physical frame, and the nested page tables.
	hostSys := vm.NewSystem(vm.Config{
		Frames:     guestFrames + guestFrames/2 + 8192,
		THP:        false,
		Compaction: mm.CompactionNormal,
	})
	master := rng.New(seedFor(hostOpts.Seed, bench, "host"))
	if _, err := vm.BackgroundChurn(hostSys, hostOpts.ChurnOps, master); err != nil {
		return nil, fmt.Errorf("host churn: %w", err)
	}
	hostSys.Compactor.Compact(-1)
	host, err := pagetable.New(&hostFrameSource{sys: hostSys})
	if err != nil {
		return nil, err
	}
	attr := vm.AnonAttr
	for gpfn := 0; gpfn < guestFrames; gpfn++ {
		hpfn, err := hostSys.Buddy.AllocBlock(0)
		if err != nil {
			return nil, fmt.Errorf("host backing frame %d: %w", gpfn, err)
		}
		hostSys.Phys.SetOwner(hpfn, mm.PageOwner{PID: 1, VPN: arch.VPN(gpfn)}, true)
		if err := host.Map(arch.VPN(gpfn), arch.PTE{PFN: hpfn, Attr: attr}); err != nil {
			return nil, err
		}
	}
	return host, nil
}

// VirtualizationComparison runs each benchmark natively and behind the
// nested walker, with the baseline and CoLT-All hierarchies on the
// identical reference stream.
func VirtualizationComparison(opts Options) ([]VirtRow, error) {
	model := perf.Default()
	// Each benchmark's native + virtualized pair is one scheduler job:
	// the two runs feed one comparison row.
	rows, ok, err := mapJobs(opts, workload.All(),
		func(spec workload.Spec) jobMeta {
			return jobMeta{kind: "virtualization", bench: spec.Name, setup: SetupTHSOnNormal.Name}
		},
		func(spec workload.Spec, opts Options) (VirtRow, error) {
			// Native run reuses the standard pipeline.
			native, err := RunBenchmark(spec, SetupTHSOnNormal, opts, []Variant{
				{Name: "baseline", Config: core.BaselineConfig()},
				{Name: "colt-all", Config: core.CoLTAllConfig()},
			})
			if err != nil {
				return VirtRow{}, fmt.Errorf("native %s: %w", spec.Name, err)
			}

			virt, err := runVirtualized(spec, opts)
			if err != nil {
				return VirtRow{}, fmt.Errorf("virtualized %s: %w", spec.Name, err)
			}

			nb, _ := native.Variant("baseline")
			na, _ := native.Variant("colt-all")
			vb, va := virt[0], virt[1]
			row := VirtRow{
				Bench:         spec.Name,
				NativeElim:    stats.PercentEliminated(float64(nb.TLB.L2Misses), float64(na.TLB.L2Misses)),
				VirtElim:      stats.PercentEliminated(float64(vb.TLB.L2Misses), float64(va.TLB.L2Misses)),
				NativeSpeedup: model.Improvement(nb.Run, na.Run),
				VirtSpeedup:   model.Improvement(vb.Run, va.Run),
			}
			// Every divisor must be checked: a run short enough to trigger
			// no virtualized walks would otherwise put Inf in the row (and
			// then in the metrics JSON, which rejects non-finite values).
			if nb.TLB.Walks > 0 && vb.TLB.Walks > 0 && nb.Run.WalkCycles > 0 {
				nativePerWalk := float64(nb.Run.WalkCycles) / float64(nb.TLB.Walks)
				virtPerWalk := float64(vb.Run.WalkCycles) / float64(vb.TLB.Walks)
				row.WalkInflation = virtPerWalk / nativePerWalk
			}
			return row, nil
		})
	if err != nil {
		return nil, err
	}
	return surviving(rows, ok), nil
}

// runVirtualized builds the guest system + workload, backs it with a
// host table, and runs baseline and CoLT-All over the nested walker.
func runVirtualized(spec workload.Spec, opts Options) ([2]VariantResult, error) {
	start := time.Now()
	var out [2]VariantResult
	sys, master, plane, err := buildSystem(SetupTHSOnNormal, opts, spec.Name+"/virt", nil)
	if err != nil {
		return out, err
	}
	proc, err := sys.NewProcess()
	if err != nil {
		return out, err
	}
	w, err := workload.Build(scaledSpec(spec, opts), proc, master.Stream("workload"))
	if err != nil {
		return out, err
	}
	host, err := buildHostBacking(sys.Phys.NumFrames(), opts, spec.Name)
	if err != nil {
		return out, err
	}

	configs := []core.Config{core.BaselineConfig(), core.CoLTAllConfig()}
	names := []string{"baseline", "colt-all"}
	type simState struct {
		hier   *core.Hierarchy
		caches *cache.Hierarchy
		stall  uint64
	}
	sims := make([]simState, len(configs))
	for i, cfg := range configs {
		caches := cache.DefaultHierarchy()
		walker := mmu.NewNestedWalker(proc.Table, host, caches,
			mmu.NewWalkCache(mmu.DefaultWalkCacheEntries),
			mmu.NewWalkCache(mmu.DefaultWalkCacheEntries))
		sims[i] = simState{hier: core.NewHierarchy(cfg, walker), caches: caches}
	}

	var instructions uint64
	refs := opts.Warmup + opts.Refs
	for i := 0; i < refs; i++ {
		if i%ctxCheckEvery == 0 {
			if err := opts.canceled(); err != nil {
				return out, fmt.Errorf("%s/virt: %w", spec.Name, err)
			}
		}
		if err := plane.Fail(fault.SiteTraceCorrupt); err != nil {
			return out, fmt.Errorf("%s/virt: decoding trace record %d: %w", spec.Name, i, err)
		}
		va, write, gap := w.Next()
		vpn := va.Page()
		if i == opts.Warmup {
			instructions = 0
			for j := range sims {
				sims[j].hier.ResetStats()
				sims[j].stall = 0
			}
		}
		instructions += uint64(gap)
		for j := range sims {
			res := sims[j].hier.Access(vpn)
			if res.Fault {
				return out, fmt.Errorf("virtualized fault at vpn %d", vpn)
			}
			lat := sims[j].caches.DataAccess(res.PFN.Addr()+arch.PAddr(va.Offset()), write)
			if lat > l1HitLatency {
				sims[j].stall += uint64(lat - l1HitLatency)
			}
		}
	}
	// System-level audits only: the nested walker's TLB entries hold
	// host PFNs, which by design never match the guest page table, so
	// the coherence/coalescing auditors would flag every entry.
	if err := auditSystem(opts, "at virtualized run end", sys); err != nil {
		return out, err
	}
	for j := range sims {
		st := sims[j].hier.Stats()
		out[j] = VariantResult{
			Name:   names[j],
			Policy: configs[j].Policy.String(),
			TLB:    st,
			Levels: sims[j].hier.LevelStats(),
			Run: perf.Run{
				Instructions:   instructions,
				MemStallCycles: sims[j].stall,
				WalkCycles:     st.WalkCycles,
			},
		}
	}
	if opts.Metrics != nil {
		res := &BenchResult{
			Bench:        spec.Name + "/virt",
			Setup:        SetupTHSOnNormal,
			Instructions: instructions,
			Variants:     out[:],
		}
		seed := seedFor(opts.Seed, spec.Name+"/virt", SetupTHSOnNormal.Name)
		opts.Metrics.Add(res.MetricsRecord(seed), time.Since(start))
	}
	return out, nil
}

// RenderVirtualization formats the comparison as text.
func RenderVirtualization(rows []VirtRow) string {
	t := stats.NewTable("Benchmark", "Native elim", "Virt elim", "Native speedup", "Virt speedup", "Walk inflation")
	var ne, ve, ns, vs, wi stats.Summary
	for _, r := range rows {
		t.AddRow(r.Bench, r.NativeElim, r.VirtElim, r.NativeSpeedup, r.VirtSpeedup, r.WalkInflation)
		ne.Add(r.NativeElim)
		ve.Add(r.VirtElim)
		ns.Add(r.NativeSpeedup)
		vs.Add(r.VirtSpeedup)
		wi.Add(r.WalkInflation)
	}
	t.AddRow("Average", ne.Mean(), ve.Mean(), ns.Mean(), vs.Mean(), wi.Mean())
	return "Extension: CoLT-All under virtualization (2D nested page walks)\n" +
		"(elim = % of baseline L2 misses; speedup = modeled %; walk inflation = virt/native cycles per walk)\n" +
		t.String()
}
