package vm

import (
	"testing"

	"colt/internal/arch"
	"colt/internal/mm"
	"colt/internal/rng"
)

func newSys(t *testing.T, frames int, thp bool, mode mm.CompactionMode) *System {
	t.Helper()
	return NewSystem(Config{Frames: frames, THP: thp, Compaction: mode})
}

// checkRegionMapped verifies every live page of r resolves and that
// physical frame ownership is consistent.
func checkRegionMapped(t *testing.T, s *System, p *Process, r *Region) {
	t.Helper()
	for vpn := r.Base; vpn < r.End(); vpn++ {
		if !r.Mapped(vpn) {
			continue
		}
		pfn, _, ok := p.Resolve(vpn)
		if !ok {
			t.Fatalf("region page %d unmapped", vpn)
		}
		f := s.Phys.Frame(pfn)
		if !f.Allocated {
			t.Fatalf("page %d backed by free frame %d", vpn, pfn)
		}
		if f.Owner.PID != p.PID || f.Owner.VPN != vpn {
			t.Fatalf("frame %d owner %+v, want pid %d vpn %d", pfn, f.Owner, p.PID, vpn)
		}
	}
}

func TestMallocPopulatesAndResolves(t *testing.T) {
	s := newSys(t, 1<<14, false, mm.CompactionNormal)
	p, err := s.NewProcess()
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Malloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pages != 100 || r.MappedPages() != 100 {
		t.Fatalf("region = %+v", r)
	}
	checkRegionMapped(t, s, p, r)
	// On a fresh system the 100 pages should be one contiguous run.
	first, _, _ := p.Resolve(r.Base)
	for i := 1; i < 100; i++ {
		pfn, _, _ := p.Resolve(r.Base + arch.VPN(i))
		if pfn != first+arch.PFN(i) {
			t.Fatalf("fresh malloc not contiguous at page %d", i)
		}
	}
}

func TestMallocBytesRoundsUp(t *testing.T) {
	s := newSys(t, 1<<14, false, mm.CompactionNormal)
	p, _ := s.NewProcess()
	r, err := p.MallocBytes(arch.PageSize + 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pages != 2 {
		t.Fatalf("Pages = %d", r.Pages)
	}
}

func TestMallocErrors(t *testing.T) {
	s := newSys(t, 1<<14, false, mm.CompactionNormal)
	p, _ := s.NewProcess()
	if _, err := p.Malloc(0); err == nil {
		t.Fatal("zero-page malloc accepted")
	}
	if _, err := p.Malloc(1 << 20); err == nil {
		t.Fatal("oversized malloc succeeded")
	}
	// Failed malloc must not leak memory.
	free := s.Buddy.FreePages()
	if _, err := p.Malloc(1 << 20); err == nil {
		t.Fatal("oversized malloc succeeded")
	}
	if s.Buddy.FreePages() != free {
		t.Fatalf("failed malloc leaked: %d -> %d", free, s.Buddy.FreePages())
	}
}

func TestTHPBacksLargeRegions(t *testing.T) {
	s := newSys(t, 1<<14, true, mm.CompactionNormal)
	p, _ := s.NewProcess()
	r, err := p.Malloc(3 * arch.PagesPerHuge)
	if err != nil {
		t.Fatal(err)
	}
	if r.HugeBlocks() != 3 {
		t.Fatalf("HugeBlocks = %d, want 3", r.HugeBlocks())
	}
	if r.Base%arch.PagesPerHuge != 0 {
		t.Fatal("large anonymous region not 2MB-aligned")
	}
	pte, ok := p.Table.Lookup(r.Base)
	if !ok || !pte.Huge {
		t.Fatalf("base PTE = %v, %v", pte, ok)
	}
	// File-backed regions are never THP candidates.
	fr, err := p.MapFile(2 * arch.PagesPerHuge)
	if err != nil {
		t.Fatal(err)
	}
	if fr.HugeBlocks() != 0 {
		t.Fatal("file-backed region got hugepages")
	}
	_, attr, _ := p.Resolve(fr.Base)
	if !attr.Has(arch.AttrFileBacked) {
		t.Fatal("file attr missing")
	}
}

func TestTHPDisabledUsesBasePages(t *testing.T) {
	s := newSys(t, 1<<14, false, mm.CompactionNormal)
	p, _ := s.NewProcess()
	r, err := p.Malloc(2 * arch.PagesPerHuge)
	if err != nil {
		t.Fatal(err)
	}
	if r.HugeBlocks() != 0 {
		t.Fatal("THP off but huge mappings created")
	}
	if p.Table.MappedHuge() != 0 {
		t.Fatal("huge PTEs present")
	}
}

func TestFreeReturnsMemory(t *testing.T) {
	s := newSys(t, 1<<14, true, mm.CompactionNormal)
	p, _ := s.NewProcess()
	before := s.Buddy.FreePages()
	r, err := p.Malloc(1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Free(r); err != nil {
		t.Fatal(err)
	}
	// Everything except page-table frames is back.
	after := s.Buddy.FreePages()
	if before-after > 8 {
		t.Fatalf("free leaked: %d -> %d", before, after)
	}
	if err := s.Buddy.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := p.Free(r); err == nil {
		t.Fatal("double Free accepted")
	}
}

func TestFreePagesPartial(t *testing.T) {
	s := newSys(t, 1<<14, false, mm.CompactionNormal)
	p, _ := s.NewProcess()
	r, _ := p.Malloc(64)
	if err := p.FreePages(r, 10, 5); err != nil {
		t.Fatal(err)
	}
	if r.MappedPages() != 59 {
		t.Fatalf("MappedPages = %d", r.MappedPages())
	}
	for i := 10; i < 15; i++ {
		if _, _, ok := p.Resolve(r.Base + arch.VPN(i)); ok {
			t.Fatalf("freed page %d still mapped", i)
		}
	}
	if _, _, ok := p.Resolve(r.Base + 9); !ok {
		t.Fatal("neighbor page unmapped")
	}
	// Freeing the same range again is a no-op for already-freed pages.
	if err := p.FreePages(r, 10, 5); err != nil {
		t.Fatal(err)
	}
	// Bounds checks.
	if err := p.FreePages(r, 60, 10); err == nil {
		t.Fatal("out-of-range FreePages accepted")
	}
	if err := p.FreePages(r, -1, 2); err == nil {
		t.Fatal("negative offset accepted")
	}
}

func TestFreePagesSplitsHugeFirst(t *testing.T) {
	s := newSys(t, 1<<14, true, mm.CompactionNormal)
	p, _ := s.NewProcess()
	r, err := p.Malloc(arch.PagesPerHuge)
	if err != nil {
		t.Fatal(err)
	}
	if r.HugeBlocks() != 1 {
		t.Skip("no hugepage formed; nothing to split")
	}
	if err := p.FreePages(r, 100, 10); err != nil {
		t.Fatal(err)
	}
	if r.HugeBlocks() != 0 {
		t.Fatal("huge mapping survived partial free")
	}
	if p.Table.MappedHuge() != 0 {
		t.Fatal("huge PTE survived")
	}
	// Residual contiguity: pages outside the hole are still mapped to
	// their original contiguous frames.
	pfn0, _, _ := p.Resolve(r.Base)
	pfn99, _, ok := p.Resolve(r.Base + 99)
	if !ok || pfn99 != pfn0+99 {
		t.Fatal("split lost residual contiguity")
	}
	if r.MappedPages() != arch.PagesPerHuge-10 {
		t.Fatalf("MappedPages = %d", r.MappedPages())
	}
}

func TestProcessExit(t *testing.T) {
	s := newSys(t, 1<<14, true, mm.CompactionNormal)
	before := s.Buddy.FreePages()
	p, _ := s.NewProcess()
	if _, err := p.Malloc(600); err != nil {
		t.Fatal(err)
	}
	if _, err := p.MapFile(64); err != nil {
		t.Fatal(err)
	}
	p.Exit()
	if s.Buddy.FreePages() != before {
		t.Fatalf("Exit leaked: %d -> %d", before, s.Buddy.FreePages())
	}
	if s.Process(p.PID) != nil {
		t.Fatal("process still registered")
	}
	p.Exit() // idempotent
	if _, err := p.Malloc(1); err == nil {
		t.Fatal("malloc after exit accepted")
	}
}

// recordingShootdown captures shootdown events.
type recordingShootdown struct {
	events map[arch.VPN]int
}

func (r *recordingShootdown) Shootdown(pid int, vpn arch.VPN) {
	if r.events == nil {
		r.events = make(map[arch.VPN]int)
	}
	r.events[vpn]++
}

func TestShootdownOnUnmap(t *testing.T) {
	s := newSys(t, 1<<14, false, mm.CompactionNormal)
	rec := &recordingShootdown{}
	s.AddShootdownHandler(rec)
	p, _ := s.NewProcess()
	r, _ := p.Malloc(8)
	if err := p.FreePages(r, 2, 2); err != nil {
		t.Fatal(err)
	}
	if rec.events[r.Base+2] != 1 || rec.events[r.Base+3] != 1 {
		t.Fatalf("shootdowns = %v", rec.events)
	}
}

func TestCompactionMigratesAndRehomes(t *testing.T) {
	s := newSys(t, 1<<12, false, mm.CompactionNormal)
	rec := &recordingShootdown{}
	s.AddShootdownHandler(rec)
	p, _ := s.NewProcess()
	// Fragment: allocate many small regions, free every other one.
	var regs []*Region
	for i := 0; i < 128; i++ {
		r, err := p.Malloc(8)
		if err != nil {
			t.Fatal(err)
		}
		regs = append(regs, r)
	}
	for i := 0; i < 128; i += 2 {
		if err := p.Free(regs[i]); err != nil {
			t.Fatal(err)
		}
	}
	moved := s.Compactor.Compact(-1)
	if moved == 0 {
		t.Fatal("compaction moved nothing")
	}
	if len(rec.events) == 0 {
		t.Fatal("migration raised no shootdowns")
	}
	// Every surviving region still resolves correctly with consistent
	// ownership.
	for i := 1; i < 128; i += 2 {
		checkRegionMapped(t, s, p, regs[i])
	}
}

func TestTHPPressureSplitViaTicks(t *testing.T) {
	s := newSys(t, 1<<13, true, mm.CompactionNormal) // 8192 frames = 16 superpages max
	p, _ := s.NewProcess()
	var regs []*Region
	// Exhaust memory with hugepage-backed regions; pressure must split
	// some of them as free memory drops below the watermark.
	for i := 0; i < 20; i++ {
		r, err := p.Malloc(arch.PagesPerHuge)
		if err != nil {
			break
		}
		regs = append(regs, r)
	}
	// Keep allocating small regions to drive ticks under pressure.
	for i := 0; i < 64; i++ {
		if _, err := p.Malloc(4); err != nil {
			break
		}
	}
	if s.THP.Stats().Splits == 0 {
		t.Fatal("no pressure splits happened")
	}
	// Split regions must still resolve with residual contiguity.
	for _, r := range regs {
		checkRegionMapped(t, s, p, r)
	}
}

func TestMemhogHoldsAndFragments(t *testing.T) {
	s := newSys(t, 1<<14, true, mm.CompactionNormal)
	m, err := StartMemhog(s, 25, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	held := m.HeldPages()
	target := (1 << 14) * 25 / 100
	if held < target*6/10 || held > target {
		t.Fatalf("memhog holds %d pages, target %d", held, target)
	}
	// Zero percent: no memhog.
	if m2, err := StartMemhog(s, 0, rng.New(1)); err != nil || m2 != nil {
		t.Fatal("zero-pct memhog misbehaved")
	}
	if _, err := StartMemhog(s, 99, rng.New(1)); err == nil {
		t.Fatal("99% memhog accepted")
	}
}

func TestMemhogReclaimUnderOOM(t *testing.T) {
	s := newSys(t, 1<<13, false, mm.CompactionNormal)
	m, err := StartMemhog(s, 50, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	p, _ := s.NewProcess()
	// Ask for more than the remaining free memory: memhog must be
	// reclaimed to satisfy it.
	free := int(s.Buddy.FreePages())
	heldBefore := m.HeldPages()
	r, err := p.Malloc(free + 512)
	if err != nil {
		t.Fatalf("malloc under pressure failed: %v", err)
	}
	if m.HeldPages() >= heldBefore {
		t.Fatal("memhog was not reclaimed")
	}
	checkRegionMapped(t, s, p, r)
}

func TestBackgroundChurnFragments(t *testing.T) {
	s := newSys(t, 1<<14, true, mm.CompactionNormal)
	proc, err := BackgroundChurn(s, 400, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(proc.Regions()) == 0 {
		t.Fatal("churn left no live regions")
	}
	if err := s.Buddy.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Churn must leave memory measurably fragmented: free pages exist
	// but are not all in maximal blocks.
	if s.Buddy.FreePages() == 0 {
		t.Fatal("churn consumed all memory")
	}
}

func TestSystemProcessesOrder(t *testing.T) {
	s := newSys(t, 1<<12, false, mm.CompactionNormal)
	p1, _ := s.NewProcess()
	p2, _ := s.NewProcess()
	got := s.Processes()
	if len(got) != 2 || got[0] != p1 || got[1] != p2 {
		t.Fatal("process order wrong")
	}
	p1.Exit()
	got = s.Processes()
	if len(got) != 1 || got[0] != p2 {
		t.Fatal("exit not reflected")
	}
}

// TestReleasedSystemPanicsOnUse: Release hands the frame arrays, buddy
// links and page-table nodes to the next system, so the released
// system and its processes must panic on use instead of touching state
// another system now owns. A second Release does nothing, and stats
// stay readable.
func TestReleasedSystemPanicsOnUse(t *testing.T) {
	s := newSys(t, 1<<12, true, mm.CompactionNormal)
	p, err := s.NewProcess()
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	allocs := s.Buddy.Stats().Allocs
	s.Release()
	s.Release()
	if s.Buddy.Stats().Allocs != allocs {
		t.Fatalf("buddy stats after Release = %+v", s.Buddy.Stats())
	}
	for _, c := range []struct {
		what string
		fn   func()
	}{
		{"NewProcess", func() { s.NewProcess() }},
		{"Malloc", func() { p.Malloc(1) }},
		{"Resolve", func() { p.Resolve(r.Base) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released system did not panic", c.what)
				}
			}()
			c.fn()
		}()
	}
}
