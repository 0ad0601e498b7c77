package mm

import (
	"errors"
	"testing"

	"colt/internal/arch"
)

// recordingMigrator remembers every migration so tests can validate
// rehoming callbacks. failAfter > 0 makes every migration past that
// count fail, exercising the rollback path.
type recordingMigrator struct {
	moves []struct {
		owner    PageOwner
		from, to arch.PFN
	}
	failAfter int
}

func (m *recordingMigrator) MigratePage(owner PageOwner, from, to arch.PFN) error {
	if m.failAfter > 0 && len(m.moves) >= m.failAfter {
		return errors.New("rehoming refused")
	}
	m.moves = append(m.moves, struct {
		owner    PageOwner
		from, to arch.PFN
	}{owner, from, to})
	return nil
}

// fragment sets up a checkerboard: all frames allocated, every even
// frame freed, odd frames movable user pages.
func fragment(t *testing.T, pm *PhysMem, b *Buddy, movable bool) {
	t.Helper()
	if _, err := b.AllocRange(pm.NumFrames()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pm.NumFrames(); i++ {
		pfn := arch.PFN(i)
		if i%2 == 0 {
			b.FreeRange(pfn, 1)
		} else {
			pm.SetOwner(pfn, PageOwner{PID: 1, VPN: arch.VPN(i)}, movable)
		}
	}
}

func TestCompactDefragments(t *testing.T) {
	pm := NewPhysMem(256)
	b := NewBuddy(pm)
	mig := &recordingMigrator{}
	c := NewCompactor(pm, b, mig, CompactionNormal)
	fragment(t, pm, b, true)

	if _, err := b.AllocBlock(4); err != ErrFragmented {
		t.Fatalf("setup: want fragmented, got %v", err)
	}
	moved := c.Compact(-1)
	if moved == 0 {
		t.Fatal("compaction moved nothing")
	}
	if len(mig.moves) != moved {
		t.Fatalf("migrator called %d times for %d moves", len(mig.moves), moved)
	}
	// Every migration must go upward (movable pages move to the top).
	for _, m := range mig.moves {
		if m.to <= m.from {
			t.Fatalf("migration went down: %d -> %d", m.from, m.to)
		}
		if m.owner.PID != 1 {
			t.Fatalf("owner lost in migration: %+v", m.owner)
		}
	}
	// After full compaction a large contiguous block must exist.
	if _, err := b.AllocBlock(6); err != nil {
		t.Fatalf("still fragmented after compaction: %v", err)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Frame metadata must have followed the pages.
	for _, m := range mig.moves {
		f := pm.Frame(m.to)
		if !f.Allocated || f.Owner != m.owner {
			t.Fatalf("target frame %d metadata wrong: %+v", m.to, f)
		}
	}
}

func TestCompactEarlyExitAtTargetOrder(t *testing.T) {
	pm := NewPhysMem(1024)
	b := NewBuddy(pm)
	c := NewCompactor(pm, b, nil, CompactionNormal)
	fragment(t, pm, b, true)
	moved := c.Compact(3)
	if moved >= 512 {
		t.Fatalf("compaction did not stop early: moved %d", moved)
	}
	if b.LargestFreeOrder() < 3 {
		t.Fatal("target order not satisfied")
	}
}

func TestCompactSkipsUnmovable(t *testing.T) {
	pm := NewPhysMem(64)
	b := NewBuddy(pm)
	c := NewCompactor(pm, b, nil, CompactionNormal)
	fragment(t, pm, b, false) // pinned pages
	if moved := c.Compact(-1); moved != 0 {
		t.Fatalf("compaction moved %d pinned pages", moved)
	}
}

func TestOnAllocFailureModes(t *testing.T) {
	pm := NewPhysMem(64)
	b := NewBuddy(pm)
	normal := NewCompactor(pm, b, nil, CompactionNormal)
	if !normal.OnAllocFailure(2) {
		t.Fatal("normal mode must compact on failure")
	}
	if normal.Stats().Direct != 1 {
		t.Fatalf("Direct = %d", normal.Stats().Direct)
	}

	low := NewCompactor(pm, b, nil, CompactionLow)
	ran := 0
	for i := 0; i < lowModePeriod; i++ {
		if low.OnAllocFailure(2) {
			ran++
		}
	}
	if ran != 1 {
		t.Fatalf("low mode ran %d times in %d failures, want 1", ran, lowModePeriod)
	}
	if low.Stats().Skipped != lowModePeriod-1 {
		t.Fatalf("Skipped = %d", low.Stats().Skipped)
	}
}

func TestBackgroundTick(t *testing.T) {
	pm := NewPhysMem(2048)
	b := NewBuddy(pm)
	c := NewCompactor(pm, b, nil, CompactionNormal)
	if c.BackgroundTick() {
		t.Fatal("background compaction ran on unfragmented memory")
	}
	fragment(t, pm, b, true)
	if !c.BackgroundTick() {
		t.Fatal("background compaction did not run on fragmented memory")
	}
	if c.Stats().Background != 1 {
		t.Fatalf("Background = %d", c.Stats().Background)
	}
	lo := NewCompactor(pm, b, nil, CompactionLow)
	if lo.BackgroundTick() {
		t.Fatal("low mode must never background-compact")
	}
}

func TestCompactionModeString(t *testing.T) {
	if CompactionNormal.String() != "normal" || CompactionLow.String() != "low" {
		t.Fatal("mode strings wrong")
	}
}

func TestCompactPreservesRunOrder(t *testing.T) {
	pm := NewPhysMem(512)
	b := NewBuddy(pm)
	mig := &recordingMigrator{}
	c := NewCompactor(pm, b, mig, CompactionNormal)
	// A movable run of 16 pages at the bottom, free space at the top.
	if _, err := b.AllocRange(32); err != nil {
		t.Fatal(err)
	}
	b.FreeRange(16, 16)
	for i := 0; i < 16; i++ {
		pm.SetOwner(arch.PFN(i), PageOwner{PID: 1, VPN: arch.VPN(1000 + i)}, true)
	}
	if c.Compact(-1) != 16 {
		t.Fatal("run not fully migrated")
	}
	// The run must land ascending and contiguous: VPN order preserved
	// in PFN order.
	for i := 1; i < len(mig.moves); i++ {
		prev, cur := mig.moves[i-1], mig.moves[i]
		if cur.owner.VPN == prev.owner.VPN+1 && cur.to != prev.to+1 {
			t.Fatalf("migration scattered a contiguous run: %+v then %+v", prev, cur)
		}
	}
}

func TestCompactMigrationBudget(t *testing.T) {
	pm := NewPhysMem(1 << 14)
	b := NewBuddy(pm)
	c := NewCompactor(pm, b, nil, CompactionNormal)
	// More movable pages than one pass's budget.
	if _, err := b.AllocRange(1 << 14); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i += 2 {
		b.FreeRange(arch.PFN(i), 1)
		pm.SetOwner(arch.PFN(i+1), PageOwner{PID: 1, VPN: arch.VPN(i)}, true)
	}
	moved := c.Compact(-1)
	if moved > maxMigratePerRun {
		t.Fatalf("pass exceeded budget: %d > %d", moved, maxMigratePerRun)
	}
	// The scanners meet near the middle of the checkerboard, so a pass
	// moves roughly half the movable pages up to the budget.
	if moved < 2000 {
		t.Fatalf("pass moved only %d pages", moved)
	}
	// Repeated passes stay bounded too.
	if again := c.Compact(-1); again > maxMigratePerRun {
		t.Fatalf("second pass exceeded budget: %d", again)
	}
}

// TestCompactBudgetExitIsNotAborted: Aborted counts passes that ran
// until the scanners met, never passes that stopped because they spent
// their migration budget, direct or background.
func TestCompactBudgetExitIsNotAborted(t *testing.T) {
	const n = 1 << 15
	pm := NewPhysMem(n)
	b := NewBuddy(pm)
	c := NewCompactor(pm, b, nil, CompactionNormal)
	// A free/movable checkerboard with one pinned frame per 256: the
	// scanners meet only after several budgets' worth of migrations,
	// and no free block of order 8 or more can ever form, so no target
	// order ends a pass early.
	if _, err := b.AllocRange(n); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		switch pfn := arch.PFN(i); {
		case i%256 == 255:
			pm.SetOwner(pfn, PageOwner{PID: KernelPID}, false)
		case i%2 == 0:
			b.FreeRange(pfn, 1)
		default:
			pm.SetOwner(pfn, PageOwner{PID: 1, VPN: arch.VPN(i)}, true)
		}
	}
	if !c.OnAllocFailure(HugeOrder) {
		t.Fatal("direct compaction did not run")
	}
	if st := c.Stats(); st.Migrated != maxDirectMigrate || st.Aborted != 0 {
		t.Fatalf("direct pass: Migrated %d, Aborted %d; want its %d budget spent and 0", st.Migrated, st.Aborted, maxDirectMigrate)
	}
	if moved := c.Compact(-1); moved != maxMigratePerRun {
		t.Fatalf("background pass moved %d, want its %d budget", moved, maxMigratePerRun)
	}
	if st := c.Stats(); st.Runs != 2 || st.Aborted != 0 {
		t.Fatalf("after two budget exits: Runs %d, Aborted %d; want 2 and 0", st.Runs, st.Aborted)
	}
	// Every migration moves a page up, so the passes end; only the last,
	// where the scanners meet short of the budget, is aborted.
	for c.Compact(-1) == maxMigratePerRun {
	}
	if st := c.Stats(); st.Aborted != 1 {
		t.Fatalf("Aborted = %d after %d passes, want 1", st.Aborted, st.Runs)
	}
	if issues := b.Audit(); len(issues) > 0 {
		t.Fatalf("allocator inconsistent: %v", issues)
	}
}

func TestDirectCompactionDeferral(t *testing.T) {
	pm := NewPhysMem(1 << 12)
	b := NewBuddy(pm)
	c := NewCompactor(pm, b, nil, CompactionNormal)
	// Pin everything: compaction can never build the order, so
	// deferral must back off exponentially.
	if _, err := b.AllocRange(1 << 12); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1<<12; i += 2 {
		b.FreeRange(arch.PFN(i), 1)
		pm.SetOwner(arch.PFN(i+1), PageOwner{PID: KernelPID}, false)
	}
	ran := 0
	for i := 0; i < 200; i++ {
		if c.OnAllocFailure(9) {
			ran++
		}
	}
	if ran >= 20 {
		t.Fatalf("deferral ineffective: %d direct compactions in 200 failures", ran)
	}
	if c.Stats().Skipped == 0 {
		t.Fatal("no skips recorded")
	}
}

func TestBackgroundCompactionBackoff(t *testing.T) {
	pm := NewPhysMem(1 << 12)
	b := NewBuddy(pm)
	c := NewCompactor(pm, b, nil, CompactionNormal)
	if _, err := b.AllocRange(1 << 12); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1<<12; i += 2 {
		b.FreeRange(arch.PFN(i), 1)
		pm.SetOwner(arch.PFN(i+1), PageOwner{PID: KernelPID}, false)
	}
	ran := 0
	for i := 0; i < 1000; i++ {
		if c.BackgroundTick() {
			ran++
		}
	}
	// Cooldown alone would allow ~125 runs; the no-progress backoff
	// must cut that dramatically.
	if ran >= 40 {
		t.Fatalf("background backoff ineffective: %d runs in 1000 ticks", ran)
	}
}

// TestCompactNoFreeTarget: when no free frame exists above the migrate
// scanner there is nowhere to move pages to; the pass must stop
// cleanly with nothing migrated and the allocator consistent.
func TestCompactNoFreeTarget(t *testing.T) {
	pm := NewPhysMem(64)
	b := NewBuddy(pm)
	mig := &recordingMigrator{}
	c := NewCompactor(pm, b, mig, CompactionNormal)
	// Fill memory completely: movable pages at the bottom, pinned pages
	// above them, zero free frames anywhere.
	if _, err := b.AllocRange(64); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		pm.SetOwner(arch.PFN(i), PageOwner{PID: 1, VPN: arch.VPN(i)}, true)
	}
	for i := 32; i < 64; i++ {
		pm.SetOwner(arch.PFN(i), PageOwner{PID: KernelPID}, false)
	}
	if moved := c.Compact(-1); moved != 0 {
		t.Fatalf("compaction moved %d pages with no free target", moved)
	}
	if len(mig.moves) != 0 {
		t.Fatalf("migrator called %d times with no free target", len(mig.moves))
	}
	if issues := b.Audit(); len(issues) > 0 {
		t.Fatalf("allocator inconsistent: %v", issues)
	}
	// The movable pages must be untouched.
	for i := 0; i < 32; i++ {
		f := pm.Frame(arch.PFN(i))
		if !f.Allocated || f.Owner.PID != 1 || f.Owner.VPN != arch.VPN(i) {
			t.Fatalf("frame %d metadata disturbed: %+v", i, f)
		}
	}
}

// TestCompactRehomingFailureRollsBack: a failing rehoming callback must
// leave the source frame owned and allocated, return the claimed
// target to the free lists, and keep the allocator consistent — and
// the failure must be counted.
func TestCompactRehomingFailureRollsBack(t *testing.T) {
	pm := NewPhysMem(256)
	b := NewBuddy(pm)
	mig := &recordingMigrator{failAfter: 3}
	c := NewCompactor(pm, b, mig, CompactionNormal)
	fragment(t, pm, b, true)

	freeBefore := b.FreePages()
	moved := c.Compact(-1)
	if moved != 3 {
		t.Fatalf("moved %d pages, want exactly the 3 successful rehomings", moved)
	}
	if got := c.Stats().MigrateFails; got == 0 {
		t.Fatal("MigrateFails not counted")
	}
	if b.FreePages() != freeBefore {
		t.Fatalf("free pages drifted: %d -> %d", freeBefore, b.FreePages())
	}
	if issues := b.Audit(); len(issues) > 0 {
		t.Fatalf("allocator inconsistent after rollback: %v", issues)
	}
	// Every odd frame that did not migrate must still be owned by pid 1
	// with its original VPN (fragment() set Owner.VPN = frame index).
	migrated := map[arch.PFN]bool{}
	for _, m := range mig.moves {
		migrated[m.from] = true
	}
	for i := 1; i < pm.NumFrames(); i += 2 {
		pfn := arch.PFN(i)
		if migrated[pfn] {
			continue
		}
		f := pm.Frame(pfn)
		if !f.Allocated || f.Owner.PID != 1 || f.Owner.VPN != arch.VPN(i) {
			t.Fatalf("unmigrated frame %d metadata wrong after rollback: %+v", i, f)
		}
	}
}

// TestCompactMigrateFaultHook: an injected veto skips the page without
// touching any state and is counted in MigrateFails.
func TestCompactMigrateFaultHook(t *testing.T) {
	pm := NewPhysMem(256)
	b := NewBuddy(pm)
	mig := &recordingMigrator{}
	c := NewCompactor(pm, b, mig, CompactionNormal)
	fragment(t, pm, b, true)
	vetoed := errors.New("vetoed")
	c.SetMigrateFaultHook(func() error { return vetoed })
	if moved := c.Compact(-1); moved != 0 {
		t.Fatalf("compaction moved %d pages with every migration vetoed", moved)
	}
	if len(mig.moves) != 0 {
		t.Fatal("migrator reached despite veto")
	}
	if c.Stats().MigrateFails == 0 {
		t.Fatal("vetoes not counted")
	}
	if issues := b.Audit(); len(issues) > 0 {
		t.Fatalf("allocator inconsistent: %v", issues)
	}
	// Uninstall: compaction proceeds normally again.
	c.SetMigrateFaultHook(nil)
	if moved := c.Compact(-1); moved == 0 {
		t.Fatal("compaction still stuck after hook removal")
	}
}

func TestFindFreeRun(t *testing.T) {
	pm := NewPhysMem(64)
	b := NewBuddy(pm)
	// Allocate everything, then free [40,44) and [50,51).
	if _, err := b.AllocRange(64); err != nil {
		t.Fatal(err)
	}
	b.FreeRange(40, 4)
	b.FreeRange(50, 1)
	base, hint, ok := pm.findFreeRun(0, 63, 4)
	if !ok || base != 40 {
		t.Fatalf("findFreeRun(4) = %d,%v", base, ok)
	}
	if hint != base-1 {
		t.Fatalf("hint = %d", hint)
	}
	if _, _, ok := pm.findFreeRun(0, 63, 5); ok {
		t.Fatal("found a 5-run that does not exist")
	}
	base, _, ok = pm.findFreeRun(45, 63, 1)
	if !ok || base != 50 {
		t.Fatalf("findFreeRun(1, lo=45) = %d,%v", base, ok)
	}
}
