package mm

import (
	"colt/internal/arch"
	"colt/internal/telemetry"
)

// HugeAlloc records one live transparent hugepage: 512 contiguous,
// 2 MB-aligned frames backing 512 contiguous virtual pages of a process.
type HugeAlloc struct {
	PID     int
	BaseVPN arch.VPN
	BasePFN arch.PFN
}

// THPStats counts transparent-hugepage activity.
type THPStats struct {
	HugeAllocs    uint64
	HugeFails     uint64 // attempts that fell back to base pages
	Splits        uint64 // pressure-driven demotions to base pages
	CompactForTHP uint64 // direct compactions triggered by a THP fault
}

// THP models Linux Transparent Hugepage Support (paper §3.2.3): the
// allocator opportunistically backs large anonymous regions with
// naturally-aligned 2 MB blocks, leaning on the compaction daemon to
// create them, and a pressure daemon later splits superpages back into
// base pages — which is precisely how THP "leaves large amounts of
// smaller, residual contiguity" that CoLT exploits.
type THP struct {
	phys    *PhysMem
	buddy   *Buddy
	compact *Compactor
	enabled bool

	// live superpages in allocation order; pressure splits the oldest
	// first (an LRU approximation of Linux's shrinker behaviour).
	huges []HugeAlloc
	stats THPStats

	// failHuge, when set, may veto huge allocations before any state
	// changes (the fault-injection plane's hook); vetoed attempts fall
	// back to base pages like any other huge-allocation failure.
	failHuge func() error

	// tracer receives THP promote/demote events (nil when disabled).
	tracer *telemetry.Tracer
}

// splitWatermark: when free memory drops below this fraction of total,
// MaybeSplit demotes superpages (models min_free_kbytes pressure).
const splitWatermark = 0.08

// NewTHP creates the hugepage manager. compact may be nil to disable
// THP-driven direct compaction.
func NewTHP(pm *PhysMem, b *Buddy, compact *Compactor, enabled bool) *THP {
	return &THP{phys: pm, buddy: b, compact: compact, enabled: enabled}
}

// Enabled reports whether THP is on (the paper's "THS on/off" knob).
func (t *THP) Enabled() bool { return t.enabled }

// Stats returns a snapshot of the counters.
func (t *THP) Stats() THPStats { return t.stats }

// SetTracer attaches an event tracer: superpage allocations emit
// EvTHPPromote and pressure splits emit EvTHPDemote on the OS thread.
// nil detaches.
func (t *THP) SetTracer(tr *telemetry.Tracer) { t.tracer = tr }

// SetHugeFaultHook installs fn to run at the top of every TryAllocHuge
// call: a non-nil return fails the attempt (counted in HugeFails) and
// the caller falls back to base pages — the graceful THP degradation
// path. nil uninstalls.
func (t *THP) SetHugeFaultHook(fn func() error) { t.failHuge = fn }

// LiveHuges returns the number of currently-mapped superpages.
func (t *THP) LiveHuges() int { return len(t.huges) }

// TryAllocHuge attempts to back the 512 virtual pages at baseVPN (which
// must be 2 MB aligned) with one aligned 2 MB physical block. On
// fragmentation it invokes direct compaction once (as a THP page fault
// does when defrag is enabled) and retries. Returns the base PFN and
// true on success; on failure the caller falls back to the buddy
// allocator for base pages.
func (t *THP) TryAllocHuge(pid int, baseVPN arch.VPN) (arch.PFN, bool) {
	if !t.enabled {
		return 0, false
	}
	if baseVPN%arch.PagesPerHuge != 0 {
		panic("mm: TryAllocHuge with unaligned base VPN")
	}
	if t.failHuge != nil {
		if err := t.failHuge(); err != nil {
			t.stats.HugeFails++
			return 0, false
		}
	}
	pfn, err := t.buddy.AllocBlock(HugeOrder)
	if err == ErrFragmented && t.compact != nil {
		if t.compact.OnAllocFailure(HugeOrder) {
			t.stats.CompactForTHP++
			pfn, err = t.buddy.AllocBlock(HugeOrder)
		}
	}
	if err != nil {
		t.stats.HugeFails++
		return 0, false
	}
	for i := 0; i < arch.PagesPerHuge; i++ {
		// Frames backing a live superpage are unmovable: migrating one
		// base frame would break the superpage's physical contiguity.
		t.phys.SetOwner(pfn+arch.PFN(i), PageOwner{PID: pid, VPN: baseVPN + arch.VPN(i)}, false)
	}
	t.huges = append(t.huges, HugeAlloc{PID: pid, BaseVPN: baseVPN, BasePFN: pfn})
	t.stats.HugeAllocs++
	t.tracer.Emit(telemetry.EvTHPPromote, 0, telemetry.LevelNone, uint64(baseVPN), uint64(pfn))
	return pfn, true
}

// Release drops the manager's record of the superpage at baseVPN for
// pid, e.g. because the process unmapped it. The caller frees the
// frames. Returns true if a record was removed.
func (t *THP) Release(pid int, baseVPN arch.VPN) bool {
	for i, h := range t.huges {
		if h.PID == pid && h.BaseVPN == baseVPN {
			t.huges = append(t.huges[:i], t.huges[i+1:]...)
			return true
		}
	}
	return false
}

// MaybeSplit runs the pressure daemon: while free memory is below the
// watermark and superpages remain, demote the oldest superpage to 512
// base-page mappings. The splitter callback rewrites the owning page
// table (replacing the huge PTE with 512 base PTEs that keep the same
// physical frames, i.e. full residual contiguity) and returns false if
// it could not (splitting needs a table frame and may itself hit OOM),
// in which case the superpage is kept and the daemon stops. Frames
// become movable again after a split. Returns the number of superpages
// split.
func (t *THP) MaybeSplit(splitter func(HugeAlloc) bool) int {
	split := 0
	for len(t.huges) > 0 && t.underPressure() {
		h := t.huges[0]
		if splitter != nil && !splitter(h) {
			break
		}
		// The splitter's page-table rewrite may already have released
		// the record; drop it if it is still ours.
		t.Release(h.PID, h.BaseVPN)
		for i := 0; i < arch.PagesPerHuge; i++ {
			t.phys.SetMovable(h.BasePFN + arch.PFN(i))
		}
		t.stats.Splits++
		t.tracer.Emit(telemetry.EvTHPDemote, 0, telemetry.LevelNone, uint64(h.BaseVPN), uint64(h.BasePFN))
		split++
	}
	return split
}

// SplitAll unconditionally demotes every live superpage; used when THP
// is administratively disabled mid-run and by failure-injection tests.
// Superpages whose split fails are kept.
func (t *THP) SplitAll(splitter func(HugeAlloc) bool) int {
	pending := append([]HugeAlloc(nil), t.huges...)
	n := 0
	for _, h := range pending {
		if splitter != nil && !splitter(h) {
			continue // kept; still recorded in t.huges
		}
		t.Release(h.PID, h.BaseVPN)
		for i := 0; i < arch.PagesPerHuge; i++ {
			t.phys.SetMovable(h.BasePFN + arch.PFN(i))
		}
		t.stats.Splits++
		t.tracer.Emit(telemetry.EvTHPDemote, 0, telemetry.LevelNone, uint64(h.BaseVPN), uint64(h.BasePFN))
		n++
	}
	return n
}

func (t *THP) underPressure() bool {
	total := uint64(t.phys.NumFrames())
	return float64(t.buddy.FreePages()) < splitWatermark*float64(total)
}
