package pagetable

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"colt/internal/arch"
)

// counterFrames hands out sequential frame numbers and tracks the live
// set, so tests can detect leaks.
type counterFrames struct {
	next arch.PFN
	live map[arch.PFN]bool
	fail bool
}

func newCounterFrames() *counterFrames {
	return &counterFrames{next: 1000, live: make(map[arch.PFN]bool)}
}

func (c *counterFrames) AllocFrame() (arch.PFN, error) {
	if c.fail {
		return 0, errors.New("injected OOM")
	}
	pfn := c.next
	c.next++
	c.live[pfn] = true
	return pfn, nil
}

func (c *counterFrames) FreeFrame(pfn arch.PFN) {
	if !c.live[pfn] {
		panic("free of unallocated table frame")
	}
	delete(c.live, pfn)
}

func basePTE(pfn arch.PFN) arch.PTE {
	return arch.PTE{PFN: pfn, Attr: arch.AttrPresent | arch.AttrWritable | arch.AttrUser}
}

func hugePTE(pfn arch.PFN) arch.PTE {
	return arch.PTE{PFN: pfn, Attr: arch.AttrPresent | arch.AttrWritable | arch.AttrUser, Huge: true}
}

func newTable(t *testing.T) (*Table, *counterFrames) {
	t.Helper()
	fs := newCounterFrames()
	tbl, err := New(fs)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, fs
}

func TestMapLookupUnmap(t *testing.T) {
	tbl, _ := newTable(t)
	vpn := arch.VPN(0x12345)
	if _, ok := tbl.Lookup(vpn); ok {
		t.Fatal("lookup on empty table succeeded")
	}
	if err := tbl.Map(vpn, basePTE(77)); err != nil {
		t.Fatal(err)
	}
	pte, ok := tbl.Lookup(vpn)
	if !ok || pte.PFN != 77 {
		t.Fatalf("Lookup = %v, %v", pte, ok)
	}
	if err := tbl.Map(vpn, basePTE(88)); err != ErrAlreadyMapped {
		t.Fatalf("remap err = %v", err)
	}
	if tbl.MappedBase() != 1 || tbl.MappedPages() != 1 {
		t.Fatal("counts wrong")
	}
	if err := tbl.Unmap(vpn); err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.Lookup(vpn); ok {
		t.Fatal("lookup after unmap succeeded")
	}
	if err := tbl.Unmap(vpn); err != ErrNotMapped {
		t.Fatalf("double unmap err = %v", err)
	}
}

func TestMapRejectsBadPTEs(t *testing.T) {
	tbl, _ := newTable(t)
	if err := tbl.Map(1, arch.PTE{PFN: 5}); err == nil {
		t.Fatal("non-present PTE accepted")
	}
	if err := tbl.Map(1, hugePTE(512)); err == nil {
		t.Fatal("huge PTE accepted by Map")
	}
	if err := tbl.MapHuge(512, basePTE(5)); err == nil {
		t.Fatal("base PTE accepted by MapHuge")
	}
	if err := tbl.MapHuge(100, hugePTE(512)); err == nil {
		t.Fatal("unaligned VPN accepted by MapHuge")
	}
	if err := tbl.MapHuge(512, hugePTE(100)); err == nil {
		t.Fatal("unaligned PFN accepted by MapHuge")
	}
}

func TestHugeMapping(t *testing.T) {
	tbl, _ := newTable(t)
	base := arch.VPN(2 * arch.PagesPerHuge)
	if err := tbl.MapHuge(base, hugePTE(1024)); err != nil {
		t.Fatal(err)
	}
	// Any VPN inside the block resolves through the huge PTE.
	pte, ok := tbl.Lookup(base + 37)
	if !ok || !pte.Huge || pte.PFN != 1024 {
		t.Fatalf("Lookup inside huge = %v, %v", pte, ok)
	}
	pfn, _, ok := tbl.Resolve(base + 37)
	if !ok || pfn != 1024+37 {
		t.Fatalf("Resolve = %d, %v", pfn, ok)
	}
	// Base mapping inside the huge range must be rejected.
	if err := tbl.Map(base+5, basePTE(9)); err != ErrHugeConflict {
		t.Fatalf("Map inside huge err = %v", err)
	}
	// A second huge mapping on the same slot conflicts.
	if err := tbl.MapHuge(base, hugePTE(2048)); err != ErrHugeConflict {
		t.Fatalf("double MapHuge err = %v", err)
	}
	if tbl.MappedHuge() != 1 || tbl.MappedPages() != arch.PagesPerHuge {
		t.Fatal("huge counts wrong")
	}
	if err := tbl.UnmapHuge(base); err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.Lookup(base); ok {
		t.Fatal("lookup after UnmapHuge succeeded")
	}
}

func TestHugeConflictsWithExistingPT(t *testing.T) {
	tbl, _ := newTable(t)
	if err := tbl.Map(5, basePTE(9)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.MapHuge(0, hugePTE(512)); err != ErrHugeConflict {
		t.Fatalf("MapHuge over existing PT err = %v", err)
	}
}

func TestWalkAddresses(t *testing.T) {
	tbl, _ := newTable(t)
	vpn := arch.VPN(0x0_001_002_003) // distinct indices at each level
	if err := tbl.Map(vpn, basePTE(55)); err != nil {
		t.Fatal(err)
	}
	res := tbl.Walk(vpn)
	if !res.Found || res.PTE.PFN != 55 {
		t.Fatalf("walk = %+v", res)
	}
	if res.Depth != Levels {
		t.Fatalf("walk touched %d levels", res.Depth)
	}
	// Each level's entry address must be 8-byte aligned and inside a
	// distinct frame.
	seen := map[uint64]bool{}
	for _, pa := range res.Touched() {
		if uint64(pa)%arch.PTESize != 0 {
			t.Fatalf("entry address %d misaligned", pa)
		}
		frame := uint64(pa) >> arch.PageShift
		if seen[frame] {
			t.Fatalf("two walk levels in the same frame")
		}
		seen[frame] = true
	}
	// Unmapped VPN in a different top-level subtree: short walk.
	res2 := tbl.Walk(vpn + arch.VPN(1)<<27)
	if res2.Found || res2.Depth != 1 {
		t.Fatalf("hole walk = %+v", res2)
	}
	// Huge mapping: 3-level walk.
	if err := tbl.MapHuge(arch.PagesPerHuge*9, hugePTE(4096)); err != nil {
		t.Fatal(err)
	}
	res3 := tbl.Walk(arch.PagesPerHuge*9 + 3)
	if !res3.Found || !res3.PTE.Huge || res3.Depth != 3 {
		t.Fatalf("huge walk = %+v", res3)
	}
}

func TestLine(t *testing.T) {
	tbl, _ := newTable(t)
	// Map a contiguous run of 6 translations starting mid-line.
	for i := 0; i < 6; i++ {
		if err := tbl.Map(arch.VPN(10+i), basePTE(arch.PFN(200+i))); err != nil {
			t.Fatal(err)
		}
	}
	group, lineAddr, ok := tbl.Line(12)
	if !ok {
		t.Fatal("Line failed")
	}
	if group[0].VPN != 8 || group[7].VPN != 15 {
		t.Fatalf("group VPNs: %d..%d", group[0].VPN, group[7].VPN)
	}
	if uint64(lineAddr)%arch.CacheLineSize != 0 {
		t.Fatalf("line address %d not line-aligned", lineAddr)
	}
	// Slots 8,9 absent; 10..15 present.
	if group[0].PTE.Present() || group[1].PTE.Present() {
		t.Fatal("absent slots reported present")
	}
	for i := 2; i < 8; i++ {
		if !group[i].PTE.Present() || group[i].PTE.PFN != arch.PFN(200+i-2) {
			t.Fatalf("slot %d = %v", i, group[i].PTE)
		}
	}
	// Huge and unmapped pages have no coalescible line.
	if err := tbl.MapHuge(arch.PagesPerHuge*4, hugePTE(2048)); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := tbl.Line(arch.PagesPerHuge * 4); ok {
		t.Fatal("Line succeeded on huge mapping")
	}
	if _, _, ok := tbl.Line(99999); ok {
		t.Fatal("Line succeeded on hole")
	}
}

func TestRemap(t *testing.T) {
	tbl, _ := newTable(t)
	if err := tbl.Remap(4, 9); err != ErrNotMapped {
		t.Fatalf("Remap hole err = %v", err)
	}
	if err := tbl.Map(4, basePTE(70)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Remap(4, 71); err != nil {
		t.Fatal(err)
	}
	pfn, _, _ := tbl.Resolve(4)
	if pfn != 71 {
		t.Fatalf("Resolve after Remap = %d", pfn)
	}
}

func TestSplitHuge(t *testing.T) {
	tbl, fs := newTable(t)
	base := arch.VPN(arch.PagesPerHuge * 3)
	if err := tbl.SplitHuge(base); err != ErrNotMapped {
		t.Fatalf("split hole err = %v", err)
	}
	if err := tbl.MapHuge(base, hugePTE(5120)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.SplitHuge(base); err != nil {
		t.Fatal(err)
	}
	if tbl.MappedHuge() != 0 || tbl.MappedBase() != arch.PagesPerHuge {
		t.Fatal("split counts wrong")
	}
	// Every page resolves to the same frame as before the split.
	for i := 0; i < arch.PagesPerHuge; i++ {
		pfn, _, ok := tbl.Resolve(base + arch.VPN(i))
		if !ok || pfn != 5120+arch.PFN(i) {
			t.Fatalf("post-split Resolve(%d) = %d, %v", i, pfn, ok)
		}
		pte, _ := tbl.Lookup(base + arch.VPN(i))
		if pte.Huge {
			t.Fatal("still huge after split")
		}
	}
	// Split pages are now individually unmappable.
	if err := tbl.Unmap(base + 100); err != nil {
		t.Fatal(err)
	}
	_ = fs
}

func TestPruneFreesTables(t *testing.T) {
	tbl, fs := newTable(t)
	before := len(fs.live)
	if err := tbl.Map(12345, basePTE(5)); err != nil {
		t.Fatal(err)
	}
	if len(fs.live) != before+3 { // three new levels under the root
		t.Fatalf("expected 3 new table frames, got %d", len(fs.live)-before)
	}
	if err := tbl.Unmap(12345); err != nil {
		t.Fatal(err)
	}
	if len(fs.live) != before {
		t.Fatalf("prune leaked %d frames", len(fs.live)-before)
	}
}

func TestMapOOMPropagates(t *testing.T) {
	tbl, fs := newTable(t)
	fs.fail = true
	if err := tbl.Map(777, basePTE(5)); err == nil {
		t.Fatal("Map succeeded under table-frame OOM")
	}
}

func TestEachOrderAndHuge(t *testing.T) {
	tbl, _ := newTable(t)
	vpns := []arch.VPN{900000, 5, 70000}
	for i, v := range vpns {
		if err := tbl.Map(v, basePTE(arch.PFN(10+i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.MapHuge(arch.PagesPerHuge*2, hugePTE(1024)); err != nil {
		t.Fatal(err)
	}
	var got []arch.VPN
	var hugeSeen int
	tbl.Each(func(tr arch.Translation) bool {
		got = append(got, tr.VPN)
		if tr.PTE.Huge {
			hugeSeen++
		}
		return true
	})
	want := []arch.VPN{5, arch.PagesPerHuge * 2, 70000, 900000}
	if len(got) != len(want) {
		t.Fatalf("Each visited %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Each order = %v, want %v", got, want)
		}
	}
	if hugeSeen != 1 {
		t.Fatalf("hugeSeen = %d", hugeSeen)
	}
	// Early stop.
	count := 0
	tbl.Each(func(arch.Translation) bool { count++; return count < 2 })
	if count != 2 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestReleaseFreesEverything(t *testing.T) {
	tbl, fs := newTable(t)
	for i := 0; i < 100; i++ {
		if err := tbl.Map(arch.VPN(i*1000), basePTE(arch.PFN(i))); err != nil {
			t.Fatal(err)
		}
	}
	tbl.Release()
	if len(fs.live) != 0 {
		t.Fatalf("Release leaked %d table frames", len(fs.live))
	}
}

// TestReleasedTablePanicsOnUse covers both ways a table hands its nodes
// back: Release frees its table frames (process exit), Recycle leaves
// them to whoever discards the frame source (a released system).
// Either way the table is unusable afterwards, and a second Release or
// Recycle does nothing (counterFrames panics on a second free).
func TestReleasedTablePanicsOnUse(t *testing.T) {
	for _, recycle := range []bool{false, true} {
		tbl, fs := newTable(t)
		for i := 0; i < 100; i++ {
			if err := tbl.Map(arch.VPN(i*1000), basePTE(arch.PFN(i))); err != nil {
				t.Fatal(err)
			}
		}
		held := len(fs.live)
		if recycle {
			tbl.Recycle()
			if len(fs.live) != held {
				t.Fatalf("Recycle freed %d table frames", held-len(fs.live))
			}
		} else {
			tbl.Release()
		}
		tbl.Release()
		tbl.Recycle()
		mustPanic(t, "Map", func() { tbl.Map(7, basePTE(7)) })
		mustPanic(t, "Walk", func() { tbl.Walk(0) })
		mustPanic(t, "Lookup", func() { tbl.Lookup(0) })
	}
}

// mustPanic fails t unless fn panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s on a released table did not panic", what)
		}
	}()
	fn()
}

// TestPropertyMapResolve checks get-after-set over random sparse VPN
// sets against a reference map.
func TestPropertyMapResolve(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tbl, _ := newTable(t)
		ref := make(map[arch.VPN]arch.PFN)
		for i := 0; i < 500; i++ {
			vpn := arch.VPN(rng.Uint64() & ((1 << 36) - 1))
			pfn := arch.PFN(rng.Uint64() & ((1 << 30) - 1))
			if _, dup := ref[vpn]; dup {
				continue
			}
			if err := tbl.Map(vpn, basePTE(pfn)); err != nil {
				return false
			}
			ref[vpn] = pfn
		}
		for vpn, pfn := range ref {
			got, _, ok := tbl.Resolve(vpn)
			if !ok || got != pfn {
				return false
			}
		}
		if tbl.MappedBase() != len(ref) {
			return false
		}
		// Unmap half, verify the rest intact.
		i := 0
		for vpn := range ref {
			if i%2 == 0 {
				if err := tbl.Unmap(vpn); err != nil {
					return false
				}
				delete(ref, vpn)
			}
			i++
		}
		for vpn, pfn := range ref {
			got, _, ok := tbl.Resolve(vpn)
			if !ok || got != pfn {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestReserve(t *testing.T) {
	tbl, fs := newTable(t)
	if err := tbl.Reserve(12345); err != nil {
		t.Fatal(err)
	}
	n := len(fs.live)
	// Map after Reserve must not allocate more table frames.
	if err := tbl.Map(12345, basePTE(7)); err != nil {
		t.Fatal(err)
	}
	if len(fs.live) != n {
		t.Fatalf("Map after Reserve allocated %d frames", len(fs.live)-n)
	}
	// Reserve under a huge mapping is rejected.
	if err := tbl.MapHuge(arch.PagesPerHuge*5, hugePTE(1024)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Reserve(arch.PagesPerHuge*5 + 3); err != ErrHugeConflict {
		t.Fatalf("Reserve under huge = %v", err)
	}
	// Reserve OOM propagates.
	fs.fail = true
	if err := tbl.Reserve(1 << 30); err == nil {
		t.Fatal("Reserve succeeded under OOM")
	}
}

// TestPropertyWalkAgreesWithLookup: for random mapped and unmapped
// VPNs, Walk and Lookup must agree on presence and translation, and
// Walk's entry addresses must be deterministic.
func TestPropertyWalkAgreesWithLookup(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tbl, _ := newTable(t)
		var mapped []arch.VPN
		for i := 0; i < 200; i++ {
			vpn := arch.VPN(rng.Uint64() & ((1 << 36) - 1))
			if err := tbl.Map(vpn, basePTE(arch.PFN(i+1))); err == nil {
				mapped = append(mapped, vpn)
			}
		}
		for i := 0; i < 100; i++ {
			var vpn arch.VPN
			if i%2 == 0 && len(mapped) > 0 {
				vpn = mapped[rng.Intn(len(mapped))]
			} else {
				vpn = arch.VPN(rng.Uint64() & ((1 << 36) - 1))
			}
			w1 := tbl.Walk(vpn)
			pte, ok := tbl.Lookup(vpn)
			if w1.Found != ok {
				return false
			}
			if ok && w1.PTE != pte {
				return false
			}
			w2 := tbl.Walk(vpn)
			if w1.Depth != w2.Depth {
				return false
			}
			for j := 0; j < w1.Depth; j++ {
				if w1.Levels[j] != w2.Levels[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyLineAgreesWithLookup: every slot of a fetched line must
// match Lookup for its VPN.
func TestPropertyLineAgreesWithLookup(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tbl, _ := newTable(t)
		base := arch.VPN(rng.Intn(1 << 20))
		for i := 0; i < 64; i++ {
			if rng.Intn(3) > 0 {
				_ = tbl.Map(base+arch.VPN(i), basePTE(arch.PFN(rng.Intn(1<<20))))
			}
		}
		for probe := base; probe < base+64; probe++ {
			line, _, ok := tbl.Line(probe)
			pte, mapped := tbl.Lookup(probe)
			if ok != mapped {
				return false
			}
			if !ok {
				continue
			}
			idx := int(probe - line[0].VPN)
			if idx < 0 || idx >= len(line) || line[idx].VPN != probe || line[idx].PTE != pte {
				return false
			}
			// Every other present slot must agree with Lookup too.
			for _, tr := range line {
				got, has := tbl.Lookup(tr.VPN)
				if tr.PTE.Present() != has {
					return false
				}
				if has && got != tr.PTE {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
