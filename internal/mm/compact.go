package mm

import (
	"math/bits"

	"colt/internal/arch"
	"colt/internal/telemetry"
)

// Migrator is implemented by the virtual-memory layer: when the
// compaction daemon moves a frame, the owning process's page table must
// be rehomed to the new frame (and any TLB entries shot down). A
// non-nil error means the rehoming did not happen; the compactor rolls
// the migration back and leaves the source frame in place. MigratePage
// must not allocate or free physical frames: a pass relies on the free
// frames above its migrate scanner changing only by its own claims.
type Migrator interface {
	MigratePage(owner PageOwner, from, to arch.PFN) error
}

// CompactionMode selects how eagerly the compaction daemon runs,
// modeling the Linux `defrag` flag the paper toggles (§5.1.1).
type CompactionMode int

const (
	// CompactionNormal triggers direct compaction on every fragmented
	// allocation failure and background compaction when the
	// fragmentation index crosses a threshold.
	CompactionNormal CompactionMode = iota
	// CompactionLow models `defrag` disabled: no background runs and
	// direct compaction only once every lowModePeriod fragmented
	// failures ("greatly reduces the number of times the daemon runs").
	CompactionLow
)

// String implements fmt.Stringer.
func (m CompactionMode) String() string {
	if m == CompactionLow {
		return "low"
	}
	return "normal"
}

const (
	// backgroundFragThreshold is the fragmentation index above which a
	// background pass compacts (Linux uses 0.5 via
	// sysctl_extfrag_threshold=500).
	backgroundFragThreshold = 0.5
	// lowModePeriod: in CompactionLow mode only every Nth fragmented
	// failure triggers a direct compaction.
	lowModePeriod = 100
	// exitCheckInterval: how many migrations between checks whether the
	// target order has been satisfied.
	exitCheckInterval = 16
	// maxMigratePerRun bounds one compaction pass's migration work,
	// modeling Linux's deferred/partial compaction: a single run does a
	// bounded amount of work rather than defragmenting the whole zone.
	maxMigratePerRun = 4096
	// maxDirectMigrate bounds a direct (allocation-failure) compaction:
	// a faulting allocation cannot afford a full background pass.
	maxDirectMigrate = 1024
	// maxDeferShift: after an unsuccessful direct compaction, up to
	// 2^maxDeferShift subsequent failures skip compaction (Linux's
	// defer_compaction backoff).
	maxDeferShift = 6
	// backgroundCooldown: only every Nth eligible background tick
	// actually compacts (kcompactd does not run continuously).
	backgroundCooldown = 8
)

// CompactStats counts daemon activity.
type CompactStats struct {
	Runs       uint64
	Migrated   uint64
	Aborted    uint64 // runs that ended with scanners meeting (not on the target or budget exits)
	Background uint64
	Direct     uint64
	Skipped    uint64 // direct triggers suppressed by CompactionLow
	// MigrateFails counts individual page migrations that failed (the
	// rehoming callback errored, the target vanished, or the fault
	// plane vetoed) and were rolled back.
	MigrateFails uint64
}

// Compactor is the memory-compaction daemon of paper §3.2.2 / Figure 3:
// a migrate scanner walks up from the bottom of physical memory
// collecting movable allocated pages while a free scanner walks down
// from the top claiming free target frames; movable pages migrate to the
// top, and the buddy merge of the vacated bottom frames yields large
// contiguous free blocks.
type Compactor struct {
	phys     *PhysMem
	buddy    *Buddy
	migrator Migrator
	mode     CompactionMode

	fragFailures uint64
	bgTicks      uint64
	deferShift   uint
	deferCount   uint64
	bgBackoff    uint
	bgSkip       uint64
	stats        CompactStats

	// failMigrate, when set, may veto individual page migrations
	// before any state changes (the fault-injection plane's hook).
	failMigrate func() error

	// tracer receives migration events (nil when disabled).
	tracer *telemetry.Tracer
}

// NewCompactor wires a compaction daemon to the allocator. migrator may
// be nil when no page tables exist (tests).
func NewCompactor(pm *PhysMem, b *Buddy, migrator Migrator, mode CompactionMode) *Compactor {
	return &Compactor{phys: pm, buddy: b, migrator: migrator, mode: mode}
}

// Mode returns the configured compaction mode.
func (c *Compactor) Mode() CompactionMode { return c.mode }

// Stats returns a snapshot of daemon counters.
func (c *Compactor) Stats() CompactStats { return c.stats }

// SetTracer attaches an event tracer: each successful page migration
// emits EvCompactMigrate on the OS thread. nil detaches.
func (c *Compactor) SetTracer(tr *telemetry.Tracer) { c.tracer = tr }

// SetMigrateFaultHook installs fn to run before each individual page
// migration: a non-nil return fails that migration (counted in
// MigrateFails) and the page is treated as unmovable for the rest of
// the pass. nil uninstalls. The daemon stays fault-agnostic — callers
// wire this to the fault plane.
func (c *Compactor) SetMigrateFaultHook(fn func() error) { c.failMigrate = fn }

// OnAllocFailure is called by the VM layer when an allocation fails with
// ErrFragmented. It decides, per the mode and the deferral backoff,
// whether to run direct compaction targeting the failed order. Returns
// true if a compaction run happened (the caller should retry its
// allocation).
func (c *Compactor) OnAllocFailure(order int) bool {
	c.fragFailures++
	if c.mode == CompactionLow && c.fragFailures%lowModePeriod != 0 {
		c.stats.Skipped++
		return false
	}
	// Deferral: if recent direct compactions failed to produce the
	// order, back off exponentially before trying again.
	if c.deferCount < (uint64(1)<<c.deferShift)-1 {
		c.deferCount++
		c.stats.Skipped++
		return false
	}
	c.deferCount = 0
	c.stats.Direct++
	c.compact(order, maxDirectMigrate)
	if c.orderSatisfied(order) {
		c.deferShift = 0
	} else if c.deferShift < maxDeferShift {
		c.deferShift++
	}
	return true
}

// BackgroundTick gives the daemon a chance to run proactively, as
// kcompactd does. In CompactionNormal mode it compacts when the
// fragmentation index at HugeOrder exceeds the threshold. Returns true
// if it ran.
func (c *Compactor) BackgroundTick() bool {
	if c.mode != CompactionNormal {
		return false
	}
	if c.buddy.FragmentationIndex(HugeOrder) <= backgroundFragThreshold {
		return false
	}
	c.bgTicks++
	if c.bgTicks%backgroundCooldown != 1 {
		return false
	}
	// No-progress backoff: when compaction repeatedly fails to build a
	// huge-order block (pinned pages in the way), kcompactd defers
	// exponentially instead of burning cycles re-scanning.
	if c.bgSkip > 0 {
		c.bgSkip--
		c.stats.Skipped++
		return false
	}
	c.stats.Background++
	c.Compact(HugeOrder)
	if c.orderSatisfied(HugeOrder) {
		c.bgBackoff = 0
	} else {
		if c.bgBackoff < maxDeferShift {
			c.bgBackoff++
		}
		c.bgSkip = uint64(1)<<c.bgBackoff - 1
	}
	return true
}

// Compact runs one compaction pass. targetOrder >= 0 lets the pass stop
// early once a free block of that order exists; pass a negative order to
// compact until the scanners meet. A pass migrates at most
// maxMigratePerRun pages (partial compaction). Returns the number of
// migrated pages.
func (c *Compactor) Compact(targetOrder int) int {
	return c.compact(targetOrder, maxMigratePerRun)
}

// maxMigrateRun caps how many pages migrate as one contiguous unit.
const maxMigrateRun = 64

// compact is one pass of the two scanners. The free-run searches cost
// O(frames · maxMigrateRun) per pass at worst and about one sweep of
// memory in practice: a successful search resumes below the run it
// found, and a failed one is never repeated. Within a pass the window
// (migScan, freeScan] only shrinks, and its free frames only get
// claimed (a rolled-back migration frees exactly the target it claimed;
// vacated sources lie below migScan, and the Migrator allocates
// nothing). So once the search for a run of length k fails, every later
// search for k or more pages fails too, and runs at least failedLen
// long go straight to the single-page fallback. Each distinct failure
// lowers failedLen, which bounds the failed searches by maxMigrateRun.
func (c *Compactor) compact(targetOrder, budget int) int {
	c.stats.Runs++
	migScan := arch.PFN(0)
	freeScan := arch.PFN(c.phys.NumFrames() - 1)
	moved := 0
	failedLen := maxMigrateRun + 1 // shortest run length whose search failed
	for migScan < freeScan && moved < budget {
		if targetOrder >= 0 && moved%exitCheckInterval == 0 && c.orderSatisfied(targetOrder) {
			return moved
		}
		// Skip to the next movable page. Skipped frames change no buddy
		// state, so each of them would have repeated the exit check
		// above with the same answer.
		if migScan = c.phys.nextMovable(migScan, freeScan); migScan == freeScan {
			break
		}
		// Isolate a run of movable pages and migrate it to an equally
		// long free run near the top, ascending within the run: page
		// migration preserves the virtual-to-physical contiguity of
		// what it moves.
		k := c.phys.movableRun(migScan, freeScan, budget-moved)
		var target, hint arch.PFN
		ok := false
		if k < failedLen {
			if target, hint, ok = c.phys.findFreeRun(migScan+arch.PFN(k), freeScan, k); !ok {
				failedLen = k
			}
		}
		if !ok && k > 1 {
			k = 1
			target, hint, ok = c.phys.findFreeRun(migScan+1, freeScan, 1)
		}
		if !ok {
			break
		}
		freeScan = hint
		failedAt := arch.PFN(0)
		failed := false
		for i := 0; i < k; i++ {
			from := migScan + arch.PFN(i)
			to := target + arch.PFN(i)
			if !c.migratePage(from, to) {
				// The page stays where it is, metadata intact; treat it
				// as unmovable and resume scanning past it. Target
				// frames beyond i were never claimed and remain free.
				failedAt, failed = from, true
				break
			}
			moved++
			c.stats.Migrated++
		}
		if failed {
			migScan = failedAt + 1
			continue
		}
		migScan += arch.PFN(k)
	}
	if moved < budget {
		// The scanners met: no free target is left above the migrate
		// scanner. A pass that spent its budget is not aborted.
		c.stats.Aborted++
	}
	return moved
}

// migratePage moves one allocated movable frame from 'from' to the
// free frame 'to', claiming the target, copying ownership, rehoming
// the owner's page table, and freeing the source. Any failure —
// injected veto, vanished target, or rehoming error — is rolled back
// so frame metadata stays consistent: the source keeps its owner and
// the target returns to (or stays on) the free lists. Returns whether
// the page moved.
func (c *Compactor) migratePage(from, to arch.PFN) bool {
	if c.failMigrate != nil {
		if err := c.failMigrate(); err != nil {
			c.stats.MigrateFails++
			return false
		}
	}
	if !c.buddy.AllocSpecific(to) {
		c.stats.MigrateFails++
		return false
	}
	owner := c.phys.Owner(from)
	c.phys.SetOwner(to, owner, true)
	if c.migrator != nil {
		if err := c.migrator.MigratePage(owner, from, to); err != nil {
			// The page table still references 'from'; release the
			// claimed target (FreeRange clears its owner metadata).
			c.buddy.FreeRange(to, 1)
			c.stats.MigrateFails++
			return false
		}
	}
	c.buddy.FreeRange(from, 1)
	c.tracer.Emit(telemetry.EvCompactMigrate, 0, telemetry.LevelNone, uint64(from), uint64(to))
	return true
}

// The compaction scanners read the frame bitmaps a word at a time.
// Each returns exactly what a frame-by-frame loop over Allocated and
// Movable returns; scan_test.go keeps those loops as the reference.

// nextMovable returns the first allocated, movable frame in
// [from, end), or end when there is none: the migrate scanner's skip.
func (pm *PhysMem) nextMovable(from, end arch.PFN) arch.PFN {
	if from >= end {
		return end
	}
	w := from >> 6
	x := pm.allocated[w] & pm.movable[w] &^ (bitOf(from) - 1)
	for x == 0 {
		w++
		if w<<6 >= end {
			return end
		}
		x = pm.allocated[w] & pm.movable[w]
	}
	return min(w<<6+arch.PFN(bits.TrailingZeros64(x)), end)
}

// movableRun returns the length of the run of allocated, movable
// frames starting at the movable frame migScan < freeScan, capped at
// maxMigrateRun, at left (the pass's remaining budget, at least 1) and
// at the frames below freeScan: the run the migrate scanner isolates.
func (pm *PhysMem) movableRun(migScan, freeScan arch.PFN, left int) int {
	limit := min(maxMigrateRun, left, int(freeScan-migScan))
	n := 0
	for n < limit {
		p := migScan + arch.PFN(n)
		shift := int(p & 63)
		// The shift fills the top with zeros, so the count of trailing
		// ones stops at the word's end.
		ones := bits.TrailingZeros64(^(pm.allocated[p>>6] & pm.movable[p>>6] >> shift))
		n += ones
		if ones < 64-shift {
			break
		}
	}
	return min(n, limit)
}

// findFreeRun searches downward from hi for k consecutive free frames
// strictly above lo, returning the base of the highest such run and a
// new downward-scan hint. It steps over each word's free and allocated
// stretches with one leading-zero count apiece; run carries a free
// stretch across a word boundary.
func (pm *PhysMem) findFreeRun(lo, hi arch.PFN, k int) (base, hint arch.PFN, ok bool) {
	run := 0 // free frames counted above p, up to hi
	for p := hi; p > lo; {
		bottom := max(p&^63, lo+1) // lowest frame of p's word in range
		free := ^pm.allocated[p>>6]
		for p >= bottom {
			// Frame p moves to bit 63: free frames from p down are the
			// leading ones, allocated ones the leading zeros.
			x := free << (63 - p&63)
			avail := int(p-bottom) + 1
			ones := min(bits.LeadingZeros64(^x), avail)
			if run+ones >= k {
				base = p + 1 - arch.PFN(k-run)
				return base, base - 1, true
			}
			run += ones
			if ones == avail {
				p = bottom - 1
				break
			}
			p -= arch.PFN(ones)
			run = 0
			p -= arch.PFN(min(bits.LeadingZeros64(x<<ones), int(p-bottom)+1))
		}
	}
	return 0, lo, false
}

func (c *Compactor) orderSatisfied(order int) bool {
	for k := order; k < MaxOrder; k++ {
		if c.buddy.FreeBlocksOfOrder(k) > 0 {
			return true
		}
	}
	return false
}
