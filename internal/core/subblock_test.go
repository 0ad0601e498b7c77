package core

import (
	"testing"

	"colt/internal/arch"
)

func TestSubblockAlignedSharing(t *testing.T) {
	tlb := NewSubblockTLB(8, 4)
	// Aligned physical block 400..403 backing virtual block 100..103.
	for i := 0; i < 4; i++ {
		tlb.Insert(arch.VPN(100+i), arch.PFN(400+i), testAttr)
	}
	if tlb.Occupied() != 1 {
		t.Fatalf("Occupied = %d, want one shared entry", tlb.Occupied())
	}
	for i := 0; i < 4; i++ {
		pfn, ok := tlb.Lookup(arch.VPN(100 + i))
		if !ok || pfn != arch.PFN(400+i) {
			t.Fatalf("Lookup(%d) = %d,%v", 100+i, pfn, ok)
		}
	}
	if tlb.Rejected() != 0 {
		t.Fatalf("Rejected = %d", tlb.Rejected())
	}
}

func TestSubblockMisalignedCannotShare(t *testing.T) {
	tlb := NewSubblockTLB(8, 4)
	// Contiguous V->P but the physical run starts at offset 1 within
	// the physical subblock: CoLT would coalesce; partial-subblock
	// cannot.
	for i := 0; i < 4; i++ {
		tlb.Insert(arch.VPN(100+i), arch.PFN(401+i), testAttr)
	}
	if tlb.Occupied() != 4 {
		t.Fatalf("Occupied = %d, want 4 separate entries (alignment)", tlb.Occupied())
	}
	if tlb.Rejected() == 0 {
		t.Fatal("alignment rejections not counted")
	}
	// Translations remain correct regardless.
	for i := 0; i < 4; i++ {
		pfn, ok := tlb.Lookup(arch.VPN(100 + i))
		if !ok || pfn != arch.PFN(401+i) {
			t.Fatalf("Lookup(%d) = %d,%v", 100+i, pfn, ok)
		}
	}
}

// TestSubblockRejectsOncePerFill: a fill that meets two same-tag
// entries it cannot share counts one rejection, not one per entry.
func TestSubblockRejectsOncePerFill(t *testing.T) {
	tlb := NewSubblockTLB(8, 4)
	// Two entries for virtual block 100..103, each on a different
	// aligned physical block.
	tlb.Insert(100, 400, testAttr)
	tlb.Insert(101, 801, testAttr)
	before := tlb.Rejected()
	// A third physical block for offset 2 shares with neither.
	tlb.Insert(102, 1202, testAttr)
	if got := tlb.Rejected() - before; got != 1 {
		t.Fatalf("one fill meeting two non-sharing entries counted %d rejections", got)
	}
	if tlb.Occupied() != 3 {
		t.Fatalf("Occupied = %d, want 3 separate entries", tlb.Occupied())
	}
	if tlb.Rejected() > tlb.Stats().Fills {
		t.Fatalf("%d rejections over %d fills", tlb.Rejected(), tlb.Stats().Fills)
	}
}

func TestSubblockRemapReplacesStaleBit(t *testing.T) {
	tlb := NewSubblockTLB(8, 4)
	tlb.Insert(100, 400, testAttr)
	// The page migrates to a different frame; a fresh fill must win.
	tlb.Invalidate(100)
	tlb.Insert(100, 888, testAttr)
	pfn, ok := tlb.Lookup(100)
	if !ok || pfn != 888 {
		t.Fatalf("Lookup = %d,%v", pfn, ok)
	}
}

func TestSubblockEvictionReportsBlock(t *testing.T) {
	tlb := NewSubblockTLB(1, 1)
	tlb.Insert(0, 100, testAttr)
	evicted, was := tlb.Insert(4, 200, testAttr) // same set, different block
	if !was || evicted != 0 {
		t.Fatalf("evicted = %d,%v", evicted, was)
	}
}

func TestSubblockInvalidateAllAndStats(t *testing.T) {
	tlb := NewSubblockTLB(4, 2)
	tlb.Insert(8, 80, testAttr)
	tlb.Lookup(8)
	tlb.Lookup(9)
	st := tlb.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Fills != 1 {
		t.Fatalf("stats = %+v", st)
	}
	tlb.InvalidateAll()
	if tlb.Occupied() != 0 {
		t.Fatal("InvalidateAll incomplete")
	}
	tlb.ResetStats()
	if tlb.Stats().Lookups != 0 {
		t.Fatal("ResetStats incomplete")
	}
}

func TestSubblockConstructorPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewSubblockTLB(3, 1) },
		func() { NewSubblockTLB(4, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad geometry accepted")
				}
			}()
			f()
		}()
	}
}

// TestSubblockHierarchyVsCoLT demonstrates the paper's §2.3 argument on
// a misaligned-contiguity address space: CoLT-SA coalesces it, the
// partial-subblock TLB cannot, and the miss rates separate accordingly.
func TestSubblockHierarchyVsCoLT(t *testing.T) {
	build := func() (Walker, int) {
		tbl, w := newWorld(t)
		const pages = 2000
		pfn := arch.PFN(1 << 22)
		for v := arch.VPN(0); v < pages; v++ {
			if v%16 == 0 {
				pfn += 101 // every run starts misaligned (101 % 4 != 0)
			}
			if err := tbl.Map(v, arch.PTE{PFN: pfn, Attr: testAttr}); err != nil {
				t.Fatal(err)
			}
			pfn++
		}
		return w, pages
	}
	run := func(cfg Config) Stats {
		w, pages := build()
		h := NewHierarchy(cfg, w)
		r := newDetRand(21)
		for i := 0; i < 150_000; i++ {
			vpn := arch.VPN(r.Intn(pages))
			for b := 0; b <= r.Intn(3) && vpn+arch.VPN(b) < arch.VPN(pages); b++ {
				if res := h.Access(vpn + arch.VPN(b)); res.Fault {
					t.Fatal("fault")
				}
			}
		}
		return h.Stats()
	}
	base := run(BaselineConfig())
	sb := run(PartialSubblockConfig())
	colt := run(CoLTSAConfig(2))
	// Subblocking shares nothing on misaligned runs: at best baseline.
	if sb.L2Misses < colt.L2Misses {
		t.Fatalf("misaligned space: subblock (%d) beat CoLT (%d)", sb.L2Misses, colt.L2Misses)
	}
	if colt.L2Misses >= base.L2Misses {
		t.Fatalf("CoLT did not beat baseline: %d vs %d", colt.L2Misses, base.L2Misses)
	}
	t.Logf("L2 misses: baseline=%d subblock=%d colt-sa=%d", base.L2Misses, sb.L2Misses, colt.L2Misses)
}

// TestSubblockHierarchyOracle checks translation correctness under the
// subblock policy with shootdowns.
func TestSubblockHierarchyOracle(t *testing.T) {
	tbl, w := newWorld(t)
	for c := 0; c < 32; c++ {
		mapRun(t, tbl, arch.VPN(c*16), arch.PFN(1<<21+c*16+c), 16)
	}
	h := NewHierarchy(PartialSubblockConfig(), w)
	r := newDetRand(33)
	next := arch.PFN(1 << 24)
	for i := 0; i < 40_000; i++ {
		vpn := arch.VPN(r.Intn(512))
		if r.Intn(100) == 0 {
			if err := tbl.Remap(vpn, next); err != nil {
				t.Fatal(err)
			}
			next++
			h.Invalidate(vpn)
		}
		res := h.Access(vpn)
		want, _, _ := tbl.Resolve(vpn)
		if res.Fault || res.PFN != want {
			t.Fatalf("Access(%d) = %+v, want %d", vpn, res, want)
		}
	}
	l1, l2 := h.Subblock()
	if l1.Stats().Lookups == 0 || l2.Stats().Lookups == 0 {
		t.Fatal("subblock structures unused")
	}
}
