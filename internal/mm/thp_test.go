package mm

import (
	"testing"

	"colt/internal/arch"
)

func newTHPWorld(t *testing.T, frames int, enabled bool) (*PhysMem, *Buddy, *THP) {
	t.Helper()
	pm := NewPhysMem(frames)
	b := NewBuddy(pm)
	c := NewCompactor(pm, b, nil, CompactionNormal)
	return pm, b, NewTHP(pm, b, c, enabled)
}

func TestTHPDisabled(t *testing.T) {
	_, _, thp := newTHPWorld(t, 2048, false)
	if _, ok := thp.TryAllocHuge(1, 0); ok {
		t.Fatal("disabled THP allocated a superpage")
	}
	if thp.Enabled() {
		t.Fatal("Enabled() wrong")
	}
}

func TestTHPAllocAlignedAndUnmovable(t *testing.T) {
	pm, b, thp := newTHPWorld(t, 2048, true)
	pfn, ok := thp.TryAllocHuge(7, 512)
	if !ok {
		t.Fatal("huge alloc failed on empty memory")
	}
	if uint64(pfn)%arch.PagesPerHuge != 0 {
		t.Fatalf("huge block at %d not 2MB-aligned", pfn)
	}
	if b.FreePages() != 2048-512 {
		t.Fatalf("FreePages = %d", b.FreePages())
	}
	for i := 0; i < arch.PagesPerHuge; i++ {
		f := pm.Frame(pfn + arch.PFN(i))
		if !f.Allocated || f.Movable {
			t.Fatalf("huge frame %d: %+v", i, f)
		}
		if f.Owner.PID != 7 || f.Owner.VPN != arch.VPN(512+i) {
			t.Fatalf("huge frame %d owner: %+v", i, f.Owner)
		}
	}
	if thp.LiveHuges() != 1 || thp.Stats().HugeAllocs != 1 {
		t.Fatal("bookkeeping wrong")
	}
}

func TestTHPUnalignedPanics(t *testing.T) {
	_, _, thp := newTHPWorld(t, 2048, true)
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned TryAllocHuge did not panic")
		}
	}()
	thp.TryAllocHuge(1, 100)
}

func TestTHPFallbackWhenFragmented(t *testing.T) {
	pm, b, _ := newTHPWorld(t, 1024, true)
	// Pin unmovable pages across memory so compaction cannot help.
	if _, err := b.AllocRange(1024); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1024; i += 2 {
		b.FreeRange(arch.PFN(i), 1)
		pm.SetOwner(arch.PFN(i+1), PageOwner{PID: KernelPID}, false)
	}
	c := NewCompactor(pm, b, nil, CompactionNormal)
	thp := NewTHP(pm, b, c, true)
	if _, ok := thp.TryAllocHuge(1, 0); ok {
		t.Fatal("huge alloc should fail: memory pinned-fragmented")
	}
	if thp.Stats().HugeFails != 1 {
		t.Fatalf("HugeFails = %d", thp.Stats().HugeFails)
	}
	if thp.Stats().CompactForTHP != 1 {
		t.Fatalf("CompactForTHP = %d (direct compaction should have been tried)", thp.Stats().CompactForTHP)
	}
}

func TestTHPCompactionRescuesHugeAlloc(t *testing.T) {
	pm, b, _ := newTHPWorld(t, 2048, true)
	// Fragment with *movable* pages: compaction can fix this.
	if _, err := b.AllocRange(2048); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2048; i += 2 {
		b.FreeRange(arch.PFN(i), 1)
		pm.SetOwner(arch.PFN(i+1), PageOwner{PID: 2, VPN: arch.VPN(i)}, true)
	}
	c := NewCompactor(pm, b, nil, CompactionNormal)
	thp := NewTHP(pm, b, c, true)
	if _, ok := thp.TryAllocHuge(1, 0); !ok {
		t.Fatal("compaction should have rescued the huge allocation")
	}
}

func TestTHPPressureSplit(t *testing.T) {
	pm, b, thp := newTHPWorld(t, 2048, true)
	var allocated []arch.PFN
	for v := arch.VPN(0); ; v += arch.PagesPerHuge {
		pfn, ok := thp.TryAllocHuge(1, v)
		if !ok {
			break
		}
		allocated = append(allocated, pfn)
	}
	if len(allocated) < 3 {
		t.Fatalf("only %d superpages fit", len(allocated))
	}
	// Memory is now nearly exhausted -> under pressure.
	var splitCalls []HugeAlloc
	n := thp.MaybeSplit(func(h HugeAlloc) bool { splitCalls = append(splitCalls, h); return true })
	if n == 0 {
		t.Fatal("pressure split did not run")
	}
	if len(splitCalls) != n {
		t.Fatalf("splitter called %d times for %d splits", len(splitCalls), n)
	}
	// Oldest superpage must split first.
	if splitCalls[0].BasePFN != allocated[0] {
		t.Fatalf("split order: got %d first, want %d", splitCalls[0].BasePFN, allocated[0])
	}
	// Split frames become movable but stay allocated (residual
	// contiguity preserved).
	f := pm.Frame(splitCalls[0].BasePFN)
	if !f.Allocated || !f.Movable {
		t.Fatalf("split frame state: %+v", f)
	}
	if b.FreePages() >= 2048 {
		t.Fatal("splitting must not free memory")
	}
}

func TestTHPNoSplitWithoutPressure(t *testing.T) {
	_, _, thp := newTHPWorld(t, 4096, true)
	if _, ok := thp.TryAllocHuge(1, 0); !ok {
		t.Fatal("alloc failed")
	}
	if n := thp.MaybeSplit(nil); n != 0 {
		t.Fatalf("split %d superpages with ample free memory", n)
	}
}

func TestTHPRelease(t *testing.T) {
	_, _, thp := newTHPWorld(t, 2048, true)
	if _, ok := thp.TryAllocHuge(3, 1024); !ok {
		t.Fatal("alloc failed")
	}
	if !thp.Release(3, 1024) {
		t.Fatal("Release failed")
	}
	if thp.Release(3, 1024) {
		t.Fatal("double Release succeeded")
	}
	if thp.LiveHuges() != 0 {
		t.Fatal("record not removed")
	}
}

func TestTHPSplitAll(t *testing.T) {
	pm, _, thp := newTHPWorld(t, 4096, true)
	pfn1, ok1 := thp.TryAllocHuge(1, 0)
	_, ok2 := thp.TryAllocHuge(1, 512)
	if !ok1 || !ok2 {
		t.Fatal("allocs failed")
	}
	if n := thp.SplitAll(nil); n != 2 {
		t.Fatalf("SplitAll = %d", n)
	}
	if thp.LiveHuges() != 0 {
		t.Fatal("huges remain")
	}
	if !pm.Frame(pfn1).Movable {
		t.Fatal("frames not movable after SplitAll")
	}
}
